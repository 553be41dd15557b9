"""The three benchmark workloads.

Each workload function takes a :class:`Settings` and returns an
:class:`Outcome`: the metrics of the requested mode, the operation
counts behind ``attempted``/``failed``, and the input sizes and
diagnostics the result line's preamble reports.  Untraced runs time
every span under a :class:`hostspeed.HostProbe` and report reference
seconds; traced runs report wall seconds.

Why these three (see README.md for the layer map; ``reproduce`` is run
by hand, not registered in BENCHMARK.json, because a single 28 s
pipeline per run spread past every allowed bound in wall time, and it
has not been measured in reference time):

* ``reproduce`` is the paper's whole pipeline at the baseline scale:
  world build, crawl, score and analyze all do real work; serve does none.
* ``crawl_faults`` repeats only the §3 crawl against a transport that
  injects timeouts and 503s, so scoring and analysis never run and a
  change to them must read as no change here.
* ``serve_mix`` replays a seeded power-law request mix against the read
  API over a sealed corpus, with a working set larger than its render
  cache, so both cache hits and renders show in the latency percentiles.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostProbe
from tracing import Tracer, percentile, record_sends, tail_percentile, time_sends

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

DEFAULT_SEED = 2020
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

REPRODUCE_SCALE = 0.01
CRAWL_SCALE = 0.005
SERVE_SCALE = 0.005
#: serve_mix serves one fixed deployment and takes its request schedule
#: from the workload seed: at this scale the corpus size swings by a
#: quarter with the world seed (Pareto per-user activity), which would
#: swamp every serve-side number.
SERVE_WORLD_SEED = DEFAULT_SEED
#: One serve replay: simulated users and requests of a LoadGenerator run.
SERVE_USERS = 10_000
SERVE_REQUESTS = 5_000
#: Load-schedule seed step between successive replays of one run.
SERVE_SEED_STEP = 1_000_003
#: Path fragments of the generator's deliberate 404 probes.
PROBE_MARKERS = ("/missing-", "/ghost-", "nowhere.example")

#: The §4 calls ``stage_analyze`` makes, each timed as ``core.<fn>_s``.
ANALYSES = (
    "per_user_activity_toxicity",
    "analyze_gab_growth",
    "comment_concentration",
    "user_table",
    "compute_headlines",
    "analyze_urls",
    "analyze_languages",
    "analyze_youtube",
    "analyze_shadow_toxicity",
    "analyze_votes",
    "relative_toxicity",
    "analyze_bias",
    "analyze_social_network",
    "extract_hateful_core",
)

#: Serve endpoint tags, matched on the request path in this order.
ENDPOINTS = (
    ("thread", "/api/thread/"),
    ("user", "/api/user/"),
    ("summary_url", "/api/summary/url/"),
    ("summary_user", "/api/summary/user/"),
    ("url_lookup", "/api/url"),
    ("core_member", "/api/core/"),
    ("core", "/api/core"),
)

PLATFORM_TARGETS = (
    ("repro.core.pipeline:build_world", "platform.build_world"),
    ("repro.platform.world:build_world", "platform.build_world"),
)

#: (entry point, metric) pairs the traced run wraps.  Crawler sub-stages
#: are the crawler classes' public methods ``stage_crawl`` calls.
LAYER_TARGETS = PLATFORM_TARGETS + (
    ("repro.core.pipeline:ReproductionPipeline.stage_crawl", "crawler.stage_crawl"),
    ("repro.core.pipeline:ReproductionPipeline.enumerate_gab", "crawler.gab_enum"),
    ("repro.crawler.dissenter_crawl:DissenterCrawler.detect_accounts",
     "crawler.dissenter"),
    ("repro.crawler.dissenter_crawl:DissenterCrawler.crawl", "crawler.dissenter"),
    ("repro.crawler.dissenter_crawl:DissenterCrawler.recrawl_failures",
     "crawler.dissenter"),
    ("repro.crawler.shadow:ShadowCrawler.uncover", "crawler.shadow"),
    ("repro.crawler.youtube_crawl:YouTubeCrawler.crawl", "crawler.youtube"),
    ("repro.crawler.social_crawl:SocialGraphCrawler.crawl", "crawler.social"),
    ("repro.core.pipeline:induce_dissenter_graph", "crawler.social"),
    ("repro.core.pipeline:ReproductionPipeline.validate", "crawler.tail"),
    ("repro.core.pipeline:ReproductionPipeline.match_reddit", "crawler.tail"),
    # Sealing one segment: column projection, segment spill, column
    # file and manifest rewrite.
    ("repro.store.columns:ColumnProjector.take_segment", "store.seal"),
    ("repro.store.corpus:write_segment", "store.seal"),
    ("repro.store.corpus:adopt_columns", "store.seal"),
    ("repro.store.corpus:write_manifest", "store.seal"),
    ("repro.core.pipeline:ReproductionPipeline.stage_score", "core.score"),
    *((f"repro.core.pipeline:{fn}", f"core.{fn}") for fn in ANALYSES),
    ("repro.core.report:report_to_payload", "core.report_to_payload"),
    ("repro.serve.bootstrap:run_diffusion", "graph.run_diffusion"),
    ("repro.serve.bootstrap:build_serve_stack", "serve.build_serve_stack"),
)

#: Per-layer times: (metric, tracer key, cpu?).
TIMED_LAYERS = (
    ("platform.build_world_s", "platform.build_world", False),
    ("platform.build_world_cpu_s", "platform.build_world", True),
    ("crawler.stage_crawl_s", "crawler.stage_crawl", False),
    ("crawler.gab_enum_s", "crawler.gab_enum", False),
    ("crawler.dissenter_s", "crawler.dissenter", False),
    ("crawler.shadow_s", "crawler.shadow", False),
    ("crawler.youtube_s", "crawler.youtube", False),
    ("crawler.social_s", "crawler.social", False),
    ("crawler.tail_s", "crawler.tail", False),
    ("store.seal_s", "store.seal", False),
    ("core.score_s", "core.score", False),
    ("core.score_cpu_s", "core.score", True),
    *((f"core.{fn}_s", f"core.{fn}", False) for fn in ANALYSES),
    ("core.report_to_payload_s", "core.report_to_payload", False),
    ("graph.run_diffusion_s", "graph.run_diffusion", False),
    ("serve.build_serve_stack_s", "serve.build_serve_stack", False),
)


@dataclass
class Settings:
    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path
    #: Overrides every workload's world scale (smoke tests); goldens
    #: are only checked at the default scale and seed.
    scale: float | None = None

    def scale_or(self, default: float) -> float:
        return default if self.scale is None else self.scale

    @property
    def golden(self) -> bool:
        return self.scale is None and self.seed == DEFAULT_SEED

    def world_seed(self, scale: float) -> int:
        """The size-matched world for this workload seed (README: Seeds)."""
        if self.scale is not None:
            return self.seed
        table = json.loads((GOLDEN / "worlds.json").read_text())
        seeds = table[str(float(scale))]["seeds"]
        return self.seed if self.seed in seeds else seeds[self.seed % len(seeds)]


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    sizes: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup, probe: HostProbe, repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times.

    Returns (median reference seconds, last product, every set-up's
    reference and wall seconds).  Each product is dropped before the
    next set-up starts, so peak memory stays that of one.
    """
    times, product = {"reference_s": [], "wall_s": []}, None
    for _ in range(repeats):
        product = None
        gc.collect()
        product, span = probe.measure(setup)
        times["reference_s"].append(probe.reference_s(span))
        times["wall_s"].append(span.wall)
    return statistics.median(times["reference_s"]), product, times


def repeat_for(seconds: float, unit, minimum: int = 1) -> list:
    """Call ``unit`` until ``seconds`` would be overrun; at least ``minimum``.

    Another unit starts only if the mean unit so far still fits, so the
    number of units is steady from run to run.
    """
    results, start = [], time.perf_counter()
    while True:
        results.append(unit(len(results)))
        spent = time.perf_counter() - start
        if len(results) >= minimum and spent + spent / len(results) > seconds:
            return results


def e2e_metrics(setup_s, run_times, rates, samples_ns, marks, probe: HostProbe,
                walls) -> tuple[dict, dict]:
    """The end-to-end metrics, plus request latencies as diagnostics.

    ``run_times`` and ``rates`` are per unit, in reference seconds
    (hostspeed.py); ``walls`` are the units' wall times.  Request
    p50/p99 are the median over units of each unit's percentile, in
    wall time (``marks`` holds the index in ``samples_ns`` where each
    unit began).  They are diagnostics, not metrics: per-request times
    of 15-30 us swing by a third between runs on a shared host.  Peak
    RSS is read first, so sorting the samples here does not count.
    """
    peak = peak_rss_mb()
    units = [samples_ns[a:b] for a, b in zip(marks, marks[1:] + [len(samples_ns)])]
    tail = tail_percentile(len(samples_ns))
    diagnostics = {
        "units": len(run_times),
        "run_wall_s": statistics.median(walls),
        "host_factor": probe.host_factor(),
        "probe_slices": probe.slices,
        "request_samples": len(samples_ns),
        "request_p50_us": statistics.median(percentile(u, 50) for u in units) / 1e3,
        "request_p99_us": statistics.median(percentile(u, 99) for u in units) / 1e3,
        f"request_p{tail:g}_us_all": percentile(samples_ns, tail) / 1e3,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(run_times), "s"),
        "requests_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, diagnostics


class PipelineProbe:
    """Tracer observer that remembers the last pipeline a stage ran on."""

    def __init__(self) -> None:
        self.pipeline = None

    def __call__(self, metric, args, result) -> None:
        if metric in ("crawler.stage_crawl", "core.score") and args:
            self.pipeline = args[0]


def layer_metrics(tracer: Tracer, per: int = 1, setup: Tracer | None = None,
                  pipeline=None, corpus=None, spilled_bytes: int = 0) -> dict:
    """Every per-layer metric; layers the workload did not touch read 0.

    Times from ``tracer`` are divided by ``per`` (the traced units);
    platform times may come from a separate ``setup`` tracer.
    """
    metrics: dict[str, tuple[float, str]] = {}
    for name, key, cpu in TIMED_LAYERS:
        source = setup if setup is not None and key == "platform.build_world" else tracer
        table = source.cpu if cpu else source.wall
        divisor = 1 if source is setup else per
        metrics[name] = (table.get(key, 0.0) / divisor, "s")
    stats = pipeline.client.stats if pipeline is not None else None
    requests = stats.requests if stats else 0
    retries = stats.retries if stats else 0
    metrics.update({
        "net.requests": (requests, "count"),
        "net.retries": (retries, "count"),
        "net.timeouts": (stats.timeouts if stats else 0, "count"),
        "net.bytes_received": (stats.bytes_received if stats else 0, "bytes"),
        "net.retry_ratio": (retries / requests if requests else 0.0, "ratio"),
        "store.segments": (len(corpus.segment_refs) if corpus is not None else 0,
                           "count"),
        "store.spilled_bytes": (spilled_bytes, "bytes"),
    })
    counters = pipeline.store.counters if pipeline is not None else None
    hits = counters.hits if counters else 0
    misses = counters.misses if counters else 0
    score_s = metrics["core.score_s"][0]
    metrics.update({
        "core.texts_scored": (misses, "count"),
        "core.score_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                 "ratio"),
        "core.score_us_per_text": (score_s * 1e6 / misses if misses else 0.0, "us"),
    })
    return metrics


def serve_layer_defaults() -> dict:
    metrics = {
        "serve.request_p50_us": (0.0, "us"),
        "serve.request_p99_us": (0.0, "us"),
        "serve.hit_p50_us": (0.0, "us"),
        "serve.miss_p50_us": (0.0, "us"),
        "serve.miss_p99_us": (0.0, "us"),
        "serve.cache_hit_ratio": (0.0, "ratio"),
        "serve.cache_evictions": (0, "count"),
        "serve.throttled": (0, "count"),
        "serve.loadgen_share": (0.0, "ratio"),
    }
    for tag, _ in ENDPOINTS:
        metrics[f"serve.{tag}_p50_us"] = (0.0, "us")
    return metrics


def probed(workload):
    """Run ``workload`` under a host probe, enabled unless traced."""

    @functools.wraps(workload)
    def run(settings: Settings, src: Path) -> Outcome:
        with HostProbe(enabled=not settings.trace) as probe:
            return workload(settings, src, probe)

    return run


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.core.pipeline, repro.core.report, repro.platform.config; "
    "print(time.perf_counter() - t)"
)


def _import_seconds(src: Path) -> float:
    """Wall time of the workload's imports in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _reproduce_once(settings: Settings, samples: array, probe: HostProbe) -> dict:
    from repro.core.pipeline import ReproductionPipeline
    from repro.platform.config import WorldConfig

    report_module = importlib.import_module("repro.core.report")

    def run():
        pipeline = ReproductionPipeline(WorldConfig(
            scale=settings.scale_or(REPRODUCE_SCALE),
            seed=settings.world_seed(REPRODUCE_SCALE)))
        time_sends(pipeline.origins.transport, samples)
        report = pipeline.run()
        payload = report_module.report_to_payload(report)
        return pipeline, report, json.dumps(payload, indent=1) + "\n"

    (pipeline, report, text), span = probe.measure(run)
    return {
        "elapsed": probe.reference_s(span),
        "wall": span.wall,
        "text": text,
        "report": report,
        "pipeline": pipeline,
    }


def _check_reproduce(settings: Settings, unit: dict) -> list[str]:
    problems = []
    if not unit["report"].validation.clean:
        problems.append("crawl validation is not clean")
    if settings.golden:
        digest = hashlib.sha256(unit["text"].encode("utf-8")).hexdigest()
        expected = (GOLDEN / "reproduce_payload.sha256").read_text().split()[0]
        if digest != expected:
            problems.append(f"payload sha256 {digest} != golden {expected}")
    return problems


@probed
def reproduce(settings: Settings, src: Path, probe: HostProbe) -> Outcome:
    setup_times: dict[str, list] = {"reference_s": [], "wall_s": []}
    for _ in range(SETUP_REPEATS):
        seconds, span = probe.measure(lambda: _import_seconds(src))
        setup_times["reference_s"].append(probe.scale(seconds, span))
        setup_times["wall_s"].append(seconds)
    setup_s = statistics.median(setup_times["reference_s"])
    # The in-process imports are what the import probe timed; do them now so
    # run_s starts at the config.
    importlib.import_module("repro.core.pipeline")
    importlib.import_module("repro.core.report")
    samples = array("q")
    problems: list[str] = []

    def checked(result: dict) -> dict:
        bad = _check_reproduce(settings, result)
        problems.extend(bad)
        pipeline = result["pipeline"]
        result["failed"] = bool(bad)
        result["rate"] = pipeline.client.stats.requests / result["elapsed"]
        result["sizes"] = {
            "scale": settings.scale_or(REPRODUCE_SCALE),
            "world_seed": settings.world_seed(REPRODUCE_SCALE),
            "comments": len(result["report"].corpus.comments),
            "distinct_urls": len(result["report"].corpus.urls),
            "texts_scored": pipeline.store.counters.misses,
            "requests": pipeline.client.stats.requests,
            "payload_sha256": hashlib.sha256(
                result["text"].encode("utf-8")).hexdigest(),
        }
        for heavy in ("text", "report"):
            result.pop(heavy)
        return result

    marks: list[int] = []

    def unit(_index):
        gc.collect()
        marks.append(len(samples))
        return checked(_reproduce_once(settings, samples, probe))

    if not settings.trace:
        units = repeat_for(settings.seconds, unit)
        metrics, diagnostics = e2e_metrics(
            setup_s, [u["elapsed"] for u in units], [u["rate"] for u in units],
            samples, marks, probe, [u["wall"] for u in units])
        diagnostics.update(setup_times_s=setup_times, problems=problems)
        return Outcome(metrics, len(units), sum(u["failed"] for u in units),
                       units[-1]["sizes"], diagnostics)

    untraced = unit(0)
    with Tracer(LAYER_TARGETS) as tracer:
        gc.collect()
        traced = _reproduce_once(settings, samples, probe)
    metrics = layer_metrics(tracer, pipeline=traced["pipeline"],
                            corpus=traced["report"].corpus)
    traced = checked(traced)
    metrics.update(serve_layer_defaults())
    metrics["trace.overhead_s"] = (traced["elapsed"] - untraced["elapsed"], "s")
    return Outcome(metrics, 2, untraced["failed"] + traced["failed"],
                   traced["sizes"], {
                       "untraced_s": untraced["elapsed"],
                       "traced_s": traced["elapsed"],
                       "problems": problems,
                   })


# ----------------------------------------------------------------------
# crawl_faults
# ----------------------------------------------------------------------


def _snapshot_key(corpus) -> str:
    """sha256 of the corpus snapshot without its (per-pass) directory."""
    snapshot = dict(corpus.snapshot())
    snapshot.pop("dir", None)
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode("utf-8")).hexdigest()


def _crawl_pass(world, faults: bool, workdir: Path, samples: array | None,
                probe: HostProbe) -> dict:
    from repro.core.pipeline import ReproductionPipeline

    with tempfile.TemporaryDirectory(dir=workdir) as store_dir:
        pipeline = ReproductionPipeline(
            world=world, with_faults=faults, store_dir=store_dir)
        if samples is not None:
            time_sends(pipeline.origins.transport, samples)
        artifacts, span = probe.measure(pipeline.stage_crawl)
        pipeline.close_pools()
        return {
            "elapsed": probe.reference_s(span),
            "wall": span.wall,
            "snapshot": _snapshot_key(artifacts.corpus),
            "clean": artifacts.validation.clean,
            "stats": pipeline.client.stats.to_dict(),
            "pipeline": pipeline,
            "corpus": artifacts.corpus,
            "spilled_bytes": dir_bytes(Path(store_dir)),
        }


@probed
def crawl_faults(settings: Settings, src: Path, probe: HostProbe) -> Outcome:
    from repro.platform.config import WorldConfig

    world_module = importlib.import_module("repro.platform.world")
    config = WorldConfig(scale=settings.scale_or(CRAWL_SCALE),
                         seed=settings.world_seed(CRAWL_SCALE))

    def setup():
        world = world_module.build_world(config)
        # The warm-up pass is fault-free: its corpus is the reference
        # every faulted pass must converge to.
        return world, _crawl_pass(world, False, settings.workdir, None, probe)

    setup_tracer = None
    if settings.trace:
        with Tracer(PLATFORM_TARGETS) as setup_tracer:
            setup_s, product, setup_times = timed_setups(setup, probe, 1)
    else:
        setup_s, product, setup_times = timed_setups(setup, probe)
    world, reference = product
    samples = array("q")
    problems: list[str] = []
    marks: list[int] = []
    last: dict = {}

    def unit(_index):
        # Each pass leaves reference cycles (the timed transport wrapper
        # among them); collecting them here keeps the heap, peak RSS and
        # the collector's own work the same for every pass.
        gc.collect()
        marks.append(len(samples))
        result = _crawl_pass(world, True, settings.workdir, samples, probe)
        bad = []
        if result["snapshot"] != reference["snapshot"]:
            bad.append("faulted corpus differs from the fault-free reference")
        if not result["clean"]:
            bad.append("validation is not clean")
        if last and result["stats"] != last["stats"]:
            bad.append("network counters differ between passes")
        problems.extend(bad)
        last.update(result)
        requests = result["stats"]["requests"]
        return (result["elapsed"], requests / result["elapsed"], bool(bad),
                result["wall"])

    units = repeat_for(settings.seconds / (2 if settings.trace else 1), unit,
                       minimum=3)
    sizes = {
        "scale": config.scale,
        "world_seed": config.seed,
        "comments": len(last["corpus"].comments),
        "distinct_urls": len(last["corpus"].urls),
        "texts_scored": 0,
        "requests": last["stats"]["requests"],
        "retries": last["stats"]["retries"],
    }
    if not settings.trace:
        metrics, diagnostics = e2e_metrics(
            setup_s, [u[0] for u in units], [u[1] for u in units], samples,
            marks, probe, [u[3] for u in units])
        diagnostics.update(setup_times_s=setup_times, problems=problems)
        return Outcome(metrics, len(units), sum(u[2] for u in units), sizes,
                       diagnostics)

    with Tracer(LAYER_TARGETS) as tracer:
        traced = repeat_for(settings.seconds / 2, unit, minimum=3)
    metrics = layer_metrics(tracer, per=len(traced), setup=setup_tracer,
                            pipeline=last["pipeline"], corpus=last["corpus"],
                            spilled_bytes=last["spilled_bytes"])
    metrics.update(serve_layer_defaults())
    untraced_s = statistics.median(u[0] for u in units)
    traced_s = statistics.median(u[0] for u in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return Outcome(metrics, len(units) + len(traced),
                   sum(u[2] for u in units + traced), sizes, {
                       "untraced_pass_s": untraced_s,
                       "traced_pass_s": traced_s,
                       "problems": problems,
                   })


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------


def _endpoint(url: str) -> str:
    path = url.split("://", 1)[-1]
    path = path[path.find("/"):].split("?", 1)[0]
    for tag, prefix in ENDPOINTS:
        if path.startswith(prefix):
            return tag
    return "other"


def _replay(stack, seed: int, index: int, probe: HostProbe):
    """One replay: (reference seconds, its LoadReport, wall seconds)."""
    from repro.serve import LoadGenerator

    generator = LoadGenerator(
        stack.transport, stack.app,
        n_users=SERVE_USERS, n_requests=SERVE_REQUESTS,
        seed=seed + SERVE_SEED_STEP * index,
    )
    report, span = probe.measure(generator.run)
    return probe.reference_s(span), report, span.wall


def _unexpected(unusual) -> list:
    """Responses that are neither a probe's 404 nor a rate-limit 429."""
    return [
        (url, status) for url, status in unusual
        if status != 429
        and not (status == 404 and any(m in url for m in PROBE_MARKERS))
    ]


def _serve_checks(settings: Settings, first_report, unusual) -> tuple[int, list]:
    """(failed requests, problems) of one set of replays."""
    problems = [f"unexpected {status} for {url}" for url, status in
                _unexpected(unusual)]
    failed = len(problems)
    if settings.golden:
        golden = (GOLDEN / "serve_summary.txt").read_text(encoding="utf-8")
        if first_report.summary_text() + "\n" != golden:
            problems.append("first replay's summary differs from the golden")
            failed += first_report.requests
    return failed, problems[:20]


@probed
def serve_mix(settings: Settings, src: Path, probe: HostProbe) -> Outcome:
    bootstrap = importlib.import_module("repro.serve.bootstrap")
    scale = settings.scale_or(SERVE_SCALE)

    def setup():
        return bootstrap.build_serve_stack(scale=scale, seed=SERVE_WORLD_SEED)

    if not settings.trace:
        setup_s, stack, setup_times = timed_setups(setup, probe)
        samples = array("q")
        unusual: list = []
        time_sends(stack.transport, samples, unusual)
        reports = []
        marks: list[int] = []

        def unit(index):
            marks.append(len(samples))
            elapsed, report, wall = _replay(stack, settings.seed, index, probe)
            reports.append(report)
            return elapsed, report.requests / elapsed, wall

        units = repeat_for(settings.seconds, unit, minimum=3)
        metrics, diagnostics = e2e_metrics(
            setup_s, [u[0] for u in units], [u[1] for u in units], samples, marks,
            probe, [u[2] for u in units])
        failed, problems = _serve_checks(settings, reports[0], unusual)
        diagnostics.update(setup_times_s=setup_times, problems=problems)
        return Outcome(metrics, len(samples), min(failed, len(samples)),
                       _serve_sizes(stack, len(samples), scale), diagnostics)

    # Traced: two identical stacks replay the same schedules, the first
    # untraced and the second traced, so the difference is the tracing.
    untraced_stack = setup()
    pipelines = PipelineProbe()
    with Tracer(LAYER_TARGETS) as tracer:
        tracer.observers.append(pipelines)
        traced_stack = setup()
    samples, unusual = array("q"), []
    time_sends(untraced_stack.transport, samples, unusual)
    untraced = repeat_for(settings.seconds / 2, lambda i: _replay(
        untraced_stack, settings.seed, i, probe), minimum=3)
    records: list = []
    record_sends(traced_stack.transport, records)
    traced = [_replay(traced_stack, settings.seed, i, probe)
              for i in range(len(untraced))]
    failed, problems = _serve_checks(
        settings, traced[0][1],
        unusual + [(url, status) for url, _, status, _ in records if status != 200])

    metrics = layer_metrics(tracer, pipeline=pipelines.pipeline,
                            corpus=traced_stack.corpus)
    metrics.update(_serve_layers(traced_stack, records, traced))
    untraced_s = sum(t for t, _, _ in untraced)
    traced_s = sum(t for t, _, _ in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    attempted = len(samples) + len(records)
    return Outcome(metrics, attempted, min(failed, attempted),
                   _serve_sizes(traced_stack, len(records), scale), {
                       "untraced_replays_s": untraced_s,
                       "traced_replays_s": traced_s,
                       "problems": problems,
                   })


def _serve_layers(stack, records: list, traced: list) -> dict:
    metrics = serve_layer_defaults()
    by_cache: dict[str, list] = {"HIT": [], "MISS": []}
    by_tag: dict[str, list] = {}
    every = []
    for url, cache, _status, ns in records:
        micros = ns / 1000.0
        every.append(micros)
        if cache in by_cache:
            by_cache[cache].append(micros)
        by_tag.setdefault(_endpoint(url), []).append(micros)
    metrics["serve.request_p50_us"] = (percentile(every, 50), "us")
    metrics["serve.request_p99_us"] = (percentile(every, 99), "us")
    metrics["serve.hit_p50_us"] = (percentile(by_cache["HIT"], 50), "us")
    metrics["serve.miss_p50_us"] = (percentile(by_cache["MISS"], 50), "us")
    metrics["serve.miss_p99_us"] = (percentile(by_cache["MISS"], 99), "us")
    for tag, _ in ENDPOINTS:
        metrics[f"serve.{tag}_p50_us"] = (percentile(by_tag.get(tag, []), 50), "us")
    cache = stack.app.cache
    lookups = cache.hits + cache.misses
    metrics["serve.cache_hit_ratio"] = (cache.hits / lookups if lookups else 0.0,
                                        "ratio")
    metrics["serve.cache_evictions"] = (cache.evictions, "count")
    metrics["serve.throttled"] = (stack.app.throttled, "count")
    wall = sum(t for t, _, _ in traced)
    send_s = sum(ns for *_, ns in records) / 1e9
    metrics["serve.loadgen_share"] = ((wall - send_s) / wall if wall else 0.0,
                                      "ratio")
    return metrics


def _serve_sizes(stack, requests: int, scale: float) -> dict:
    return {
        "scale": scale,
        "world_seed": SERVE_WORLD_SEED,
        "comments": len(stack.corpus.comments),
        "distinct_urls": len(stack.corpus.urls),
        "texts_scored": stack.score_store.counters.misses,
        "requests": requests,
        "users": SERVE_USERS,
    }


WORKLOADS = {
    "reproduce": reproduce,
    "crawl_faults": crawl_faults,
    "serve_mix": serve_mix,
}
