package repro.perf

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.Executors
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.index.Indexes
import repro.nlp.{CorpusGen, Sent}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** A measured value with its unit. */
final case class Metric(value: Double, unit: String)

/** What one benchmark run measured. `lines` is the human-readable report. */
final case class Report(
    correct: Boolean,
    attempted: Int,
    failed: Int,
    metrics: ListMap[String, Metric],
    lines: Seq[String],
    record: ListMap[String, Any],
    spans: Seq[Span])

/** The KOKO query benchmark: one workload, one JVM, Spark in local mode with
  * [[KokoBench.TaskThreads]] task threads, one client in a closed loop with
  * one query in flight.
  *
  * A run sets the corpus and index up [[SetupReps]] times, checks
  * `KokoEngine.run` against `NaiveKoko.run` for each distinct query text
  * (running the engine [[GateRounds]] times per text to warm the JVM), then
  * times `KokoEngine.run` for the given number of seconds, checking each
  * call's rows against the checked result. A traced run then repeats the
  * query loop with a span around each layer's public entry point and a
  * Spark listener counting the work done under each span.
  */
object KokoBench {

  val SetupReps = 3

  /** Untimed, checked passes over the distinct texts before the timed loop.
    * The JVM is still compiling Spark's driver code after one pass; a second
    * one cuts the drift of the timed calls.
    */
  val GateRounds = 2
  val ShufflePartitions = 64

  /** Spark task threads: one, not `nproc`. On a VM that shares its host,
    * `local[nproc]` makes every stage wait for the slowest of nproc vCPUs,
    * so query time follows the host's scheduler. On a 4-vCPU Xeon VM, two
    * busy processes beside the benchmark slowed wiki-title queries by 65%
    * at `local[4]` and by 4% at `local[1]`; cafe-evidence queries take
    * about 1.7 s at `local[1]` and 4.5 s at `local[4]` (with G1).
    */
  val TaskThreads = 1

  /** End-to-end metrics, reported by every untraced run. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "query_s.p50" -> "s", "query_s.tail" -> "s", "articles_per_s" -> "articles/s",
    "setup_s" -> "s", "index_mb" -> "MB")

  /** Per-layer metrics, reported by every traced run. */
  val PerLayer: Seq[(String, String)] = Seq(
    "nlp.corpus_s" -> "s", "nlp.sentences" -> "count", "nlp.tokens" -> "count",
    "index.build_s" -> "s", "index.token_rows" -> "count", "index.entity_rows" -> "count",
    "index.pl_nodes" -> "count", "index.pos_nodes" -> "count",
    "normalize.ms" -> "ms",
    "dpli.ms" -> "ms", "dpli.items" -> "count", "dpli.jobs" -> "count", "dpli.shuffle_mb" -> "MB",
    "dpli.candidate_sents" -> "count", "dpli.true_sents" -> "count", "dpli.precision" -> "ratio",
    "engine.jobs" -> "count", "engine.stages" -> "count", "engine.tasks" -> "count",
    "engine.shuffle_mb" -> "MB", "engine.task_cpu_s" -> "s", "engine.cold_query_s" -> "s",
    "engine.stage.dpli_s" -> "s", "engine.stage.load_s" -> "s", "engine.stage.extract_s" -> "s",
    "engine.stage.satisfying_s" -> "s", "engine.tuples" -> "count", "engine.rows" -> "count",
    "evaluate.us_per_sent" -> "us", "evaluate.sents" -> "count", "evaluate.bindings" -> "count",
    "evaluate.hit_frac" -> "ratio",
    "aggregate.ms_per_value" -> "ms", "aggregate.values" -> "count", "aggregate.docs" -> "count",
    "aggregate.pass_frac" -> "ratio",
    "naive.query_s" -> "s", "naive.ratio" -> "ratio",
    "jvm.gc_ms" -> "ms", "jvm.heap_mb" -> "MB",
    "trace.overhead_s" -> "s")

  // ---------------------------------------------------------------- rows

  /** One output row as the correctness gate compares it. */
  type Row = (Long, Long, Seq[(String, String)], Seq[(String, Double)])

  /** Rows as a multiset, so two results compare equal in any order. */
  type Rows = Map[Row, Int]

  private def multiset(rs: Seq[Row]): Rows = rs.groupMapReduce(identity)(_ => 1)(_ + _)

  private def row(doc: Long, sid: Long, vals: Map[String, String], scores: Map[String, Double]): Row =
    (doc, sid, vals.toSeq.sortBy(_._1), scores.toSeq.sortBy(_._1))

  def engineRows(out: Seq[KokoEngine.OutRow]): Rows =
    multiset(out.map(r => row(r.doc, r.sid, r.vals, r.scores)))

  def naiveRows(out: Seq[NaiveKoko.OutRow]): Rows =
    multiset(out.map(r => row(r.doc, r.sid, r.vals, r.scores)))

  // ---------------------------------------------------------------- stats

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The 90th percentile, interpolated between neighbouring samples (as
    * Python's `statistics.quantiles(xs, n=10, method="inclusive")[8]`).
    * A run makes 4 to 14 timed calls, and the highest percentile with ten
    * samples beyond it lies above the median only from 21 samples on. A
    * fixed percentile keeps its meaning when faster code fits more calls
    * into a run.
    */
  def p90(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val h = 0.9 * (s.size - 1)
    val i = h.toInt
    if (s.isEmpty) 0.0 else if (i + 1 < s.size) s(i) + (h - i) * (s(i + 1) - s(i)) else s(i)
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  // ---------------------------------------------------------------- setup

  final case class Setup(
      built: Indexes.Built,
      sents: Seq[Sent],
      seconds: Seq[Double],
      sentences: Long,
      tokens: Long,
      entityRows: Long,
      indexMb: Double,
      heapMb: Double)

  /** Drops every cached dataset and waits until its blocks are freed. */
  private def dropCaches(spark: SparkSession): Unit = {
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    spark.catalog.clearCache()
  }

  /** `CorpusGen.corpus` + `Indexes.build`, materializing the sentence,
    * word and entity stores, [[SetupReps]] times; keeps the last build.
    * The first setup is the JVM's cold one; the median is of warm ones.
    */
  def setup(spark: SparkSession, w: Workload, seed: Long, tracer: Option[Tracer]): Setup = {
    def span[A](name: String)(body: => A): A = tracer.fold(body)(_.span(name, -1)(body))
    var last: (Indexes.Built, Long, Long, Long) = null
    val seconds = (0 until SetupReps).map { _ =>
      dropCaches(spark)
      val t0 = System.nanoTime()
      last = span("setup") {
        val (corpus, nSents) = span("nlp") {
          val c = CorpusGen.corpus(spark, w.kind, w.docs, seed).cache()
          (c, c.count())
        }
        span("index") {
          val b = Indexes.build(spark, corpus)
          (b, nSents, b.word.count(), b.entity.count())
        }
      }
      since(t0)
    }
    val (built, nSents, nTokens, nEntities) = last
    val indexMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6
    val sents = built.sentences.collect().toSeq
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    Setup(built, sents, seconds, nSents, nTokens, nEntities, indexMb, heapMb)
  }

  // ---------------------------------------------------------------- queries

  /** The query texts in sending order, shared by every loop of a run so
    * that consecutive calls never send the same text.
    */
  final class Rotation(order: IndexedSeq[String]) {
    private var i = 0
    def next(): String = { val t = order(i % order.size); i += 1; t }
  }

  final case class Gate(checked: Map[String, Rows], passed: Map[String, Boolean], seconds: Seq[Double]) {
    def coldS: Double = seconds.head
  }

  /** Runs the engine [[GateRounds]] times per distinct text, in rotation
    * order, and `NaiveKoko` once per text (in parallel, single-threaded
    * each, after the first engine call so that call runs alone and cold).
    * The naive rows are the checked result every later call must reproduce.
    */
  def gate(spark: SparkSession, w: Workload, s: Setup, rot: Rotation, log: String => Unit): Gate = {
    def call(): (String, Option[Rows], Double) = {
      val text = rot.next()
      val t0 = System.nanoTime()
      val rows =
        try Some(engineRows(KokoEngine.run(spark, text, s.built).rows))
        catch { case NonFatal(e) => log(s"gate: engine threw $e"); None }
      (text, rows, since(t0))
    }
    val first = call()
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    val (calls, checked) =
      try {
        val naive = Future.traverse(w.texts)(t => Future(t -> naiveRows(NaiveKoko.runQuery(t, s.sents))))
        val rest = (1 until GateRounds * w.texts.size).map(_ => call())
        (first +: rest, Await.result(naive, Duration.Inf).toMap)
      } finally pool.shutdown()
    val results = calls.map { case (text, rows, _) =>
      val ok = rows.contains(checked(text))
      if (!ok) log(s"gate: engine rows differ from NaiveKoko for query:\n$text")
      text -> ok
    }
    Gate(checked, results.groupMapReduce(_._1)(_._2)(_ && _), calls.map(_._3))
  }

  final case class Loop(latencies: Seq[Double], attempted: Int, failed: Int, wallS: Double)

  /** Closed loop: sends the next query when the previous one returned,
    * until `seconds` have passed (at least one call). A call fails if it
    * throws or its rows differ from the checked result.
    */
  def timedLoop(spark: SparkSession, built: Indexes.Built, rot: Rotation, checked: Map[String, Rows],
      seconds: Double, log: String => Unit): Loop = {
    val lat = ArrayBuffer[Double]()
    var attempted = 0
    var failed = 0
    val t0 = System.nanoTime()
    while (attempted == 0 || since(t0) < seconds) {
      val text = rot.next()
      attempted += 1
      try {
        val c0 = System.nanoTime()
        val r = KokoEngine.run(spark, text, built)
        lat += since(c0)
        if (engineRows(r.rows) != checked(text)) { failed += 1; log("timed call: rows differ") }
      } catch { case NonFatal(e) => failed += 1; log(s"timed call threw $e") }
    }
    Loop(lat.toSeq, attempted, failed, since(t0))
  }

  private def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** One traced query: a span around each layer's entry point. The
    * evaluate and aggregate replays run single-threaded on the driver over
    * the candidate sentences and values the engine saw.
    */
  private def tracedQuery(
      spark: SparkSession,
      s: Setup,
      text: String,
      k: Int,
      tr: Tracer,
      trueSids: mutable.Map[String, Set[Long]]): (ListMap[String, Double], Boolean) = {
    import spark.implicits._
    tr.span("query", k) {
      val nq = tr.span("normalize", k)(Normalizer.normalize(KokoParser.parse(text)))
      val nItems = KokoEngine.pruningItems(s.built, nq).size
      val (cand, nCand) = tr.span("dpli", k) {
        val c = KokoEngine.candidateSids(s.built, nq).map(_.cache())
        (c, c.map(_.count()).getOrElse(s.sentences))
      }
      val candSet = cand.map(_.select("sid").as[Long].collect().toSet)
      cand.foreach(_.unpersist(blocking = true))
      val candSents = candSet.fold(s.sents)(cs => s.sents.filter(x => cs.contains(x.sid)))
      val truth = trueSids.getOrElseUpdate(text, NaiveKoko.matchingSids(nq, s.sents))

      val gc0 = gcMs
      val r = tr.span("engine", k)(KokoEngine.run(spark, text, s.built))
      val gc = gcMs - gc0
      val eng = tr.last("engine")

      val bindings = tr.span("evaluate", k) {
        candSents.map(x => x -> SentenceEvaluator.evaluate(nq, x, useGsp = true))
      }
      val nBindings = bindings.map(_._2.size).sum

      // The (doc, variable, value) triples the engine's satisfying stage scores.
      val values = (for {
        (x, bs) <- bindings
        b <- bs
        vals = nq.neededVars.flatMap(v => b.get(v).map(bb => v -> SentenceEvaluator.valueOf(x, bb))).toMap
        if nq.outputs.forall(o => vals.contains(o.name))
        sat <- nq.satisfying
      } yield (x.doc, sat, vals(sat.v))).distinct
      val docs = values.map(_._1).toSet
      val byDoc = s.sents.filter(x => docs.contains(x.doc)).groupBy(_.doc)
        .map { case (d, xs) => d -> xs.sortBy(_.sid) }
      val passed = tr.span("aggregate", k) {
        values.count { case (d, sat, v) => Aggregator.score(sat, v, byDoc(d)) >= sat.threshold }
      }

      val naive = tr.span("naive", k)(NaiveKoko.run(nq, s.sents))
      val complete = candSet.forall(cs => truth.subsetOf(cs))
      val ok = complete && engineRows(r.rows) == naiveRows(naive)

      val t = r.timings
      val rec = ListMap[String, Double](
        "query_s" -> eng.seconds,
        "normalize.ms" -> tr.last("normalize").seconds * 1e3,
        "dpli.ms" -> tr.last("dpli").seconds * 1e3,
        "dpli.items" -> nItems.toDouble,
        "dpli.jobs" -> tr.last("dpli").work.jobs.toDouble,
        "dpli.shuffle_mb" -> tr.last("dpli").work.shuffleMb,
        "dpli.candidate_sents" -> nCand.toDouble,
        "dpli.true_sents" -> truth.size.toDouble,
        "dpli.precision" -> ratio(truth.size, nCand.toDouble),
        "engine.jobs" -> eng.work.jobs.toDouble,
        "engine.stages" -> eng.work.stages.toDouble,
        "engine.tasks" -> eng.work.tasks.toDouble,
        "engine.shuffle_mb" -> eng.work.shuffleMb,
        "engine.task_cpu_s" -> eng.work.executorCpuNs / 1e9,
        "engine.stage.dpli_s" -> t.dpli,
        "engine.stage.load_s" -> t.load,
        // gsp + extract is the GSP+extract stage's wall time; `extract` alone
        // subtracts executor CPU time summed over all cores from wall time.
        "engine.stage.extract_s" -> (t.gsp + t.extract),
        "engine.stage.satisfying_s" -> t.satisfying,
        "engine.tuples" -> r.nCandidateTuples.toDouble,
        "engine.rows" -> r.rows.size.toDouble,
        "evaluate.us_per_sent" -> ratio(tr.last("evaluate").seconds * 1e6, candSents.size),
        "evaluate.sents" -> candSents.size.toDouble,
        "evaluate.bindings" -> nBindings.toDouble,
        "evaluate.hit_frac" -> ratio(bindings.count(_._2.nonEmpty), candSents.size),
        "aggregate.ms_per_value" -> ratio(tr.last("aggregate").seconds * 1e3, values.size),
        "aggregate.values" -> values.size.toDouble,
        "aggregate.docs" -> docs.size.toDouble,
        "aggregate.pass_frac" -> ratio(passed, values.size),
        "naive.query_s" -> tr.last("naive").seconds,
        "jvm.gc_ms" -> gc.toDouble)
      (rec, ok)
    }
  }

  // ---------------------------------------------------------------- run

  /** F1 of the planted cafe names against the rows at [[Workloads.F1Threshold]]. */
  private def cafeF1(w: Workload, seed: Long, checked: Map[String, Rows]): Double = {
    val text = w.texts(Workloads.CafeThresholds.indexOf(Workloads.F1Threshold))
    val predicted = checked(text).keySet.map { case (doc, _, vals, _) => (doc, vals.toMap.apply("x")) }
    val tp = predicted.count { case (d, n) => CorpusGen.cafeNameOf(d, seed) == n }
    val p = if (predicted.isEmpty) 1.0 else tp.toDouble / predicted.size
    val rec = tp.toDouble / w.docs
    if (p + rec == 0) 0.0 else 2 * p * rec / (p + rec)
  }

  def run(spark: SparkSession, w: Workload, seed: Long, seconds: Int, trace: Boolean, sha: String): Report = {
    val sc = spark.sparkContext
    val lines = ArrayBuffer[String]()
    val log: String => Unit = m => Console.err.println(s"[kokobench] $m")
    val counters = new SparkCounters
    val tracer = if (trace) Some(new Tracer(sc, counters)) else None
    if (trace) sc.addSparkListener(counters)

    // A traced run splits its seconds between the untraced and traced loops.
    val loopSeconds = if (trace) seconds / 2.0 else seconds.toDouble
    val phases = mutable.LinkedHashMap[String, Double]()
    def phase[A](name: String)(body: => A): A = {
      val t0 = System.nanoTime()
      try body finally phases(name) = since(t0)
    }

    val s = phase("setup")(setup(spark, w, seed, tracer))
    if (trace) sc.removeSparkListener(counters)
    val rot = new Rotation(w.rotation(seed))
    val g = phase("gate")(gate(spark, w, s, rot, log))
    val loop = phase("timed")(timedLoop(spark, s.built, rot, g.checked, loopSeconds, log))

    val p50 = median(loop.latencies)
    val tailS = p90(loop.latencies)
    val completed = loop.attempted - loop.failed
    var attempted = loop.attempted
    var failed = loop.failed
    val storageMaxMb = sc.getExecutorMemoryStatus.values.map(_._1).sum / 1e6

    val meta = ListMap[String, Any](
      "workload" -> w.name, "why" -> w.why, "git_sha" -> sha, "seed" -> seed,
      "nproc" -> Runtime.getRuntime.availableProcessors, "trace" -> trace,
      "corpus_kind" -> w.kind, "articles" -> w.docs, "sentences" -> s.sentences, "tokens" -> s.tokens,
      "driver_xmx_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "jvm_gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString("+"),
      "spark_master" -> sc.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "storage_memory_mb" -> storageMaxMb, "fits_in_storage_memory" -> (s.indexMb < storageMaxMb),
      "load" -> "closed loop, 1 client, 1 query in flight",
      "distinct_texts" -> w.texts.size, "gate_passed" -> g.passed.values.forall(identity),
      "setup_s_samples" -> s.seconds, "gate_s_samples" -> g.seconds, "query_s_samples" -> loop.latencies,
      "query_s.tail_percentile" -> "p90")
    meta.foreach { case (k, v) => lines += s"meta $k ${v match { case xs: Seq[_] => xs.mkString(","); case o => o }}" }

    val e2e = ListMap(
      "query_s.p50" -> Metric(p50, "s"),
      "query_s.tail" -> Metric(tailS, "s"),
      "articles_per_s" -> Metric(w.docs * completed / loop.wallS, "articles/s"),
      "setup_s" -> Metric(median(s.seconds), "s"),
      "index_mb" -> Metric(s.indexMb, "MB"))
    val extra = ListMap("failed_frac" -> Metric(ratio(loop.failed, loop.attempted), "ratio")) ++
      (if (w.kind == "cafe") ListMap("f1" -> Metric(cafeF1(w, seed, g.checked), "ratio")) else ListMap())

    var queries = Seq.empty[ListMap[String, Double]]
    val metrics = tracer match {
      case None => e2e
      case Some(tr) =>
        sc.addSparkListener(counters)
        val trueSids = mutable.Map[String, Set[Long]]()
        val t0 = System.nanoTime()
        val recs = ArrayBuffer[ListMap[String, Double]]()
        while (recs.isEmpty || since(t0) < loopSeconds) {
          val text = rot.next()
          attempted += 1
          val (rec, ok) =
            try tracedQuery(spark, s, text, recs.size, tr, trueSids)
            catch { case NonFatal(e) => log(s"traced call threw $e"); (null, false) }
          if (!ok) { failed += 1; log("traced call: rows or DPLI completeness check failed") }
          if (rec != null) recs += rec
        }
        sc.removeSparkListener(counters)
        phases("traced") = since(t0)
        queries = recs.toSeq
        def med(k: String): Double = median(queries.map(_(k)))
        val setupSpans = tr.spans.filter(_.query < 0)
        val fixed = ListMap[String, Double](
          "nlp.corpus_s" -> median(setupSpans.filter(_.name == "nlp").map(_.seconds)),
          "nlp.sentences" -> s.sentences.toDouble, "nlp.tokens" -> s.tokens.toDouble,
          "index.build_s" -> median(setupSpans.filter(_.name == "index").map(_.seconds)),
          "index.token_rows" -> s.tokens.toDouble, "index.entity_rows" -> s.entityRows.toDouble,
          "index.pl_nodes" -> s.built.plNodes.size.toDouble, "index.pos_nodes" -> s.built.posNodes.size.toDouble,
          "engine.cold_query_s" -> g.coldS,
          "naive.ratio" -> ratio(med("naive.query_s"), p50),
          "jvm.heap_mb" -> s.heapMb,
          "trace.overhead_s" -> (med("query_s") - p50))
        ListMap(PerLayer.map { case (k, u) => k -> Metric(fixed.getOrElse(k, med(k)), u) }: _*)
    }

    val correct = g.passed.values.forall(identity) && failed == 0
    lines += s"result workload=${w.name} seed=$seed trace=${if (trace) 1 else 0} correct=$correct " +
      s"attempted=$attempted failed=$failed timed_calls=${loop.latencies.size}"
    if (!trace) lines += s"note query_s.tail is the p90 of n=${loop.latencies.size} timed calls"
    else lines += f"note tracing overhead: traced ${median(queries.map(_("query_s")))}%.4f s " +
      f"minus untraced $p50%.4f s query_s.p50"
    lines += f"note cached corpus and indices ${s.indexMb}%.1f MB of $storageMaxMb%.1f MB Spark storage memory"
    (e2e ++ extra ++ (if (trace) metrics else ListMap())).foreach { case (k, m) =>
      lines += s"metric $k ${m.value} ${m.unit}"
    }

    lines += "phases " + phases.map { case (k, v) => f"$k=$v%.1fs" }.mkString(" ")
    val record = ListMap[String, Any](
      "meta" -> meta,
      "phase_s" -> ListMap(phases.toSeq: _*),
      "end_to_end" -> asJson(e2e),
      "extra" -> asJson(extra),
      "per_layer" -> (if (trace) asJson(metrics) else ListMap()),
      "queries" -> queries)
    dropCaches(spark)
    Report(correct, attempted, failed, metrics, lines.toSeq, record, tracer.map(_.spans).getOrElse(Nil))
  }

  // ---------------------------------------------------------------- main

  val json: ObjectMapper = new ObjectMapper().registerModule(DefaultScalaModule)

  private def asJson(ms: ListMap[String, Metric]): ListMap[String, ListMap[String, Any]] =
    ms.map { case (k, m) => k -> ListMap("value" -> m.value, "unit" -> m.unit) }

  def session(localDir: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$TaskThreads]")
      .appName("kokobench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", localDir.toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The last stdout line: the result object the benchmark contract asks for. */
  def resultLine(r: Report): String = json.writeValueAsString(ListMap(
    "correct" -> r.correct, "attempted" -> r.attempted, "failed" -> r.failed,
    "metrics" -> asJson(r.metrics)))

  private def usage(msg: String): Nothing = {
    Console.err.println(s"kokobench: $msg")
    Console.err.println("usage: KokoBench --workload <" + Workloads.all.map(_.name).mkString("|") +
      "> --seed <n> --seconds <n> --trace <0|1> --out <dir> [--sha <git sha>]")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val opts = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    val known = Set("workload", "seed", "seconds", "trace", "out", "sha")
    opts.keySet.diff(known).foreach(k => usage(s"unknown option --$k"))
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse(usage("missing or unknown --workload"))
    val seed = opts.getOrElse("seed", "42").toLong
    val seconds = opts.getOrElse("seconds", "10").toInt
    val trace = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case o => usage(s"--trace must be 0 or 1, not $o")
    }
    val out = Paths.get(opts.getOrElse("out", "kokobench/out"))
    Files.createDirectories(out)

    val spark = session(out.resolve("spark-local"))
    val r = try run(spark, w, seed, seconds, trace, opts.getOrElse("sha", "unknown")) finally spark.stop()

    val stem = s"${w.name}-seed$seed-trace${if (trace) 1 else 0}"
    Files.write(out.resolve(s"$stem.json"),
      json.writerWithDefaultPrettyPrinter().writeValueAsString(r.record).getBytes(StandardCharsets.UTF_8))
    if (trace) Files.write(out.resolve(s"$stem-spans.jsonl"),
      r.spans.map(sp => json.writeValueAsString(sp)).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    r.lines.foreach(println)
    println(resultLine(r))
  }
}
