//! The four workloads. Each sets up its graph and service several times,
//! measures for the run's seconds, checks answers, and fills the metrics.
//!
//! | workload  | graph                           | load                                  |
//! |-----------|---------------------------------|---------------------------------------|
//! | `point`   | plain CSR, mapped read-only      | uniform BFS lookups: fixed rate, then saturation |
//! | `mixed`   | 4-shard CSR, mapped read-only    | lookups + probes + PageRank/k-core     |
//! | `publish` | plain CSR, mapped read-only      | Zipf lookups beside periodic publishes |
//! | `engine`  | compressed web CSR, read-only    | direct library calls, one thread       |

use crate::adapter::{self, Service, Snap, Store};
use crate::check;
use crate::load::{self, Class, DriveOpts, Driven, Kind, Mix, Mode, Phase, Rec, Sources};
use crate::metrics::Metrics;
use crate::stats::{best_median, best_tail, geomean, median, tail};
use crate::trace::{self, SpanId, Tracer};
use sage_core::algo;
use sage_core::EdgeUpdate;
use sage_graph::gen::{self, RmatParams};
use sage_graph::{CompressedCsr, Csr, Graph, ShardedCsr, V};
use sage_nvram::{alloc_track, MeterScope};
use sage_parallel::{hash64_pair, SplitMix64};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// log2 of the vertex count of every input graph.
pub const SCALE: u32 = 16;
/// Sampled edges per vertex (before symmetrization and dedup).
pub const EDGE_FACTOR: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Shards of the `mixed` graph.
const SHARDS: usize = 4;
/// Discarded fixed-rate warm-up before the measured phases.
const WARMUP: Duration = Duration::from_millis(1500);
/// Sources per multi-source BFS call.
const MSBFS_SOURCES: usize = 32;
/// Fixed-rate point lookups per second on a monolithic graph: under a
/// third of its saturation rate on two cores. At 80/s the queue already
/// builds; at 50/s a host slowed by a quarter by other tenants doubled the
/// tail, because the busier the workers the more a slowdown is amplified.
const POINT_QPS: f64 = 40.0;

/// Settings shared by every workload.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Serving workers (= hardware threads).
    pub workers: usize,
    /// Directory for the run's files.
    pub out: PathBuf,
    /// Span store (records only in a traced run).
    pub tracer: Tracer,
}

/// What a workload reports.
pub struct Outcome {
    /// End-to-end and per-layer metrics.
    pub metrics: Metrics,
    /// Operations attempted (requests, publishes, engine calls, checks).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Vertices with at least one edge (the source candidates).
fn non_isolated<G: Graph>(g: &G) -> Vec<V> {
    (0..g.num_vertices() as V)
        .filter(|&v| g.degree(v) > 0)
        .collect()
}

/// Run `build` [`SETUP_REPS`] times inside `setup` spans, keep the last
/// result, and record `setup_s` and the per-step medians.
fn setup<T>(
    ctx: &Ctx,
    m: &mut Metrics,
    mut build: impl FnMut(&Tracer, Option<SpanId>) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let id = ctx.tracer.open("setup", None, 0);
        kept = Some(build(&ctx.tracer, id)?);
        ctx.tracer.close(id);
        secs.push(t.elapsed().as_secs_f64());
    }
    m.set("setup_s", median(&secs).expect("setup ran"));
    if ctx.tracer.on() {
        let spans = ctx.tracer.spans();
        for (span, metric) in [
            ("graph.build", "graph.build_s"),
            ("graph.write", "graph.write_s"),
            ("graph.load", "graph.load_s"),
        ] {
            let d: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .collect();
            m.set(metric, median(&d).unwrap_or(0.0));
        }
    }
    Ok(kept.expect("at least one set-up"))
}

/// Measured blocks of a served run: each is a fixed-rate phase, a
/// saturation phase, and a drain. Alternating blocks keep a burst of
/// outside load from landing on one phase kind only. Times and rates are
/// taken per block and reported from the least disturbed block (see
/// [`best_tail`]): on a shared host, other tenants slow whole stretches of
/// a run by a quarter to a half.
const BLOCKS: usize = 4;
/// Share of the run's seconds spent in fixed-rate phases (the rest is
/// saturation); the latency tail needs the larger share.
const FIXED_SHARE: f64 = 0.65;
/// Longest a drain may wait for the saturation backlog.
const DRAIN_MAX: Duration = Duration::from_secs(20);

/// A discarded warm-up block (fixed rate, then saturation, so every path a
/// measured block takes has run once), then [`BLOCKS`] measured blocks of
/// fixed rate, saturation and drain.
fn serving_phases(ctx: &Ctx, mix: &Mix, sources: &Sources, n: usize) -> Vec<Phase> {
    let mut rng = SplitMix64::new(hash64_pair(ctx.seed, 0xD1CE));
    let fixed = Duration::from_secs_f64(ctx.seconds * FIXED_SHARE / BLOCKS as f64);
    let sat = Duration::from_secs_f64(ctx.seconds * (1.0 - FIXED_SHARE) / BLOCKS as f64);
    let mut phases = Vec::new();
    let mut block = |warmup: bool, fixed: Duration, sat: Duration| {
        for (mode, dur) in [
            (Mode::Fixed, fixed),
            (Mode::Saturate, sat),
            (Mode::Drain, DRAIN_MAX),
        ] {
            let items = match mode {
                Mode::Drain => Vec::new(),
                _ => load::schedule(mix, sources, n, dur, mode == Mode::Fixed, &mut rng),
            };
            phases.push(Phase {
                mode,
                warmup,
                dur,
                items,
            });
        }
    };
    block(true, WARMUP, WARMUP);
    for _ in 0..BLOCKS {
        block(false, fixed, sat);
    }
    phases
}

/// Indices of the measured phases of `mode`.
fn measured_of(phases: &[Phase], mode: Mode) -> Vec<usize> {
    (0..phases.len())
        .filter(|&p| !phases[p].warmup && phases[p].mode == mode)
        .collect()
}

/// Latency, throughput, per-class and per-layer metrics of a served run.
fn serving_metrics(
    ctx: &Ctx,
    m: &mut Metrics,
    notes: &mut Vec<String>,
    d: &Driven,
    phases: &[Phase],
    stats: (adapter::ServiceStats, adapter::ServiceStats),
) {
    let measured = |r: &&Rec| !phases[r.phase].warmup;
    let in_fixed = |r: &&Rec| measured(r) && phases[r.phase].mode == Mode::Fixed;
    let fixed_points: Vec<&Rec> = d
        .recs
        .iter()
        .filter(in_fixed)
        .filter(|r| r.kind == Kind::Point)
        .collect();
    let blocks: Vec<Vec<f64>> = measured_of(phases, Mode::Fixed)
        .into_iter()
        .map(|p| {
            fixed_points
                .iter()
                .filter(|r| r.phase == p)
                .map(|r| r.latency_ms())
                .collect()
        })
        .collect();
    let lat = blocks.concat();
    let late: Vec<f64> = fixed_points.iter().map(|r| r.lateness_ms()).collect();
    m.set("p50_ms", best_median(&blocks).unwrap_or(0.0));
    let (pct, p99) = best_tail(&blocks).unwrap_or((0.0, 0.0));
    m.set("p99_ms", p99);
    let late_tail = tail(&late).map_or(0.0, |t| t.1);
    m.set("load.lateness_p99_ms", late_tail);
    m.set("load.samples", lat.len() as f64);
    let depth_at = |mode: Mode| -> Vec<u64> {
        measured_of(phases, mode)
            .into_iter()
            .map(|p| d.depth_end[p])
            .collect()
    };
    let fixed_depth = depth_at(Mode::Fixed);
    m.set(
        "serve.queue_depth_end",
        *fixed_depth.iter().max().unwrap_or(&0) as f64,
    );
    let (pooled_pct, pooled) = tail(&lat).unwrap_or((0.0, 0.0));
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let tail_of = |v: &[f64]| tail(v).map_or(0.0, |t| round2(t.1));
    let block_tails: Vec<f64> = blocks.iter().map(|b| tail_of(b)).collect();
    let block_late: Vec<f64> = measured_of(phases, Mode::Fixed)
        .into_iter()
        .map(|p| {
            let v: Vec<f64> = fixed_points
                .iter()
                .filter(|r| r.phase == p)
                .map(|r| r.lateness_ms())
                .collect();
            tail_of(&v)
        })
        .collect();
    notes.push(format!(
        "fixed-rate phases: {} point lookups in {} blocks; tail = lowest over blocks of \
         each block's p{pct:.2} ({} samples beyond in each) {block_tails:?}, lowest {p99:.3} ms; \
         pooled p{pooled_pct:.2} = {pooled:.3} ms; generator lateness tail per block \
         {block_late:?} ms, pooled {late_tail:.3} ms; queue depth at each end {fixed_depth:?}",
        lat.len(),
        blocks.len(),
        crate::stats::TAIL_BEYOND,
    ));

    // Saturation: per block, the completion rate of the lookups it sent;
    // `sat_qps` is the highest (the least disturbed block).
    let rates: Vec<f64> = measured_of(phases, Mode::Saturate)
        .into_iter()
        .filter_map(|p| {
            let end = d.bounds[p].1;
            load::completion_rate(
                d.recs
                    .iter()
                    .filter(|r| r.phase == p && r.kind == Kind::Point && r.done <= end)
                    .map(|r| r.done)
                    .collect(),
            )
        })
        .collect();
    m.set("sat_qps", rates.iter().copied().reduce(f64::max).unwrap_or(0.0));
    notes.push(format!(
        "saturation phases: lookups/s per block {:?}, queue depth at each end {:?}",
        rates
            .iter()
            .map(|r| (r * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        depth_at(Mode::Saturate)
    ));

    // Per-kind medians over the fixed-rate phases for the suite geomean
    // (whole-graph kinds only).
    // During saturation the other kinds queue behind a full point backlog;
    // that wait shows in `serve.analytics_s` and `serve.wait_ms.*`.
    // Each kind's median is taken per block, as for `p50_ms`.
    let mut kind_ms: BTreeMap<Kind, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for r in d.recs.iter().filter(in_fixed) {
        let by_block = kind_ms.entry(r.kind).or_default();
        by_block.entry(r.phase).or_default().push(r.latency_ms());
    }
    let mut medians = Vec::new();
    for (kind, by_block) in &kind_ms {
        let v: Vec<Vec<f64>> = by_block.values().cloned().collect();
        let med = best_median(&v).expect("non-empty");
        notes.push(format!(
            "{}: median {med:.3} ms over {} fixed-rate requests{}",
            kind.name(),
            v.iter().map(Vec::len).sum::<usize>(),
            if kind.whole_graph() { "" } else { " (not in the geomean)" }
        ));
        if kind.whole_graph() {
            medians.push(med);
        }
    }
    m.set("suite_geomean_ms", geomean(&medians).unwrap_or(0.0));
    let analytics: Vec<f64> = d
        .recs
        .iter()
        .filter(measured)
        .filter(|r| r.kind.class() == Class::Analytics)
        .map(|r| r.latency_ms() / 1e3)
        .collect();
    m.set("serve.analytics_s", median(&analytics).unwrap_or(0.0));

    // Per-class NVRAM and DRAM words per query (exact meter counts).
    for class in Class::ALL {
        let recs: Vec<&Rec> = d
            .recs
            .iter()
            .filter(measured)
            .filter(|r| r.kind.class() == class)
            .collect();
        let per = |f: fn(&Rec) -> u64| {
            if recs.is_empty() {
                0.0
            } else {
                recs.iter().map(|r| f(r)).sum::<u64>() as f64 / recs.len() as f64
            }
        };
        m.set(
            &format!("nvram.graph_read_words.{}", class.name()),
            per(|r| r.graph_read),
        );
        m.set(
            &format!("nvram.aux_words.{}", class.name()),
            per(|r| r.aux_words),
        );
    }

    // Scheduler counters over the measured window.
    let (a, b) = stats;
    let completed = (b.completed - a.completed).max(1) as f64;
    m.set(
        "serve.batch_members",
        completed / (b.batches - a.batches).max(1) as f64,
    );
    let (hits, misses) = (b.cache_hits - a.cache_hits, b.cache_misses - a.cache_misses);
    m.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set(
        "serve.preemptions_per_kq",
        (b.preemptions - a.preemptions) as f64 * 1e3 / completed,
    );
    m.set(
        "serve.aged_promotions_per_kq",
        (b.aged_promotions - a.aged_promotions) as f64 * 1e3 / completed,
    );
    m.set("serve.peak_inflight_mb", mb(b.peak_inflight_bytes));

    if ctx.tracer.on() {
        let spans = ctx.tracer.spans();
        let selfs = trace::self_times(&spans);
        let dur_ms = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect()
        };
        let submit_us: Vec<f64> = dur_ms("serve.submit").iter().map(|x| x * 1e3).collect();
        m.set("serve.submit_us.p50", median(&submit_us).unwrap_or(0.0));
        m.set("serve.submit_us.p99", tail_or_max(&submit_us));
        for (class, req, engine) in [
            (Class::Point, "req.point", "serve.engine.point"),
            (Class::Probe, "req.probe", "serve.engine.probe"),
            (Class::Analytics, "req.analytics", "serve.engine.analytics"),
        ] {
            let wait = trace::self_ms_of(&spans, &selfs, req);
            let eng = dur_ms(engine);
            let c = class.name();
            m.set(
                &format!("serve.wait_ms.{c}.p50"),
                median(&wait).unwrap_or(0.0),
            );
            m.set(&format!("serve.wait_ms.{c}.p99"), tail_or_max(&wait));
            m.set(
                &format!("serve.engine_ms.{c}.p50"),
                median(&eng).unwrap_or(0.0),
            );
            m.set(&format!("serve.engine_ms.{c}.p99"), tail_or_max(&eng));
        }
    }
}

/// Check the sampled answers bitwise against direct library calls on the
/// snapshot of the epoch each answer is tagged with. Returns (checked,
/// failed); mismatches are also listed in `notes`.
fn check_samples(recs: &[Rec], snaps: &BTreeMap<u64, Snap>, notes: &mut Vec<String>) -> (u64, u64) {
    // One reference per distinct (epoch, query): analytics and probes with
    // the same parameters share it.
    let mut cache: BTreeMap<(u64, String), u64> = BTreeMap::new();
    let (mut checked, mut failed) = (0, 0);
    for r in recs {
        let Some((q, got)) = &r.sample else { continue };
        checked += 1;
        let Some(snap) = snaps.get(&r.epoch) else {
            failed += 1;
            notes.push(format!(
                "request {}: no snapshot kept for epoch {}",
                r.id, r.epoch
            ));
            continue;
        };
        let key = (r.epoch, format!("{q:?}"));
        let want = *cache
            .entry(key)
            .or_insert_with(|| check::digest(&check::reference_on(snap, q)));
        if want != *got {
            failed += 1;
            notes.push(format!(
                "request {} ({q:?}) at epoch {}: answer differs from the reference",
                r.id, r.epoch
            ));
        }
    }
    (checked, failed)
}

/// Start and length of each measured fixed-rate or saturation phase, sent
/// to the side thread as the phase begins; the channel closes when the
/// last phase ends.
type PhaseStarts = mpsc::Receiver<(Instant, Duration)>;

/// What the side thread returns: the snapshots it published (by epoch),
/// and its operations attempted and failed.
type SideResult = (BTreeMap<u64, Snap>, u64, u64);

/// A served workload's common tail: drive the phases while `side` runs on
/// a second thread, check the answers, fill the metrics.
#[allow(clippy::too_many_arguments)]
fn serve_and_measure(
    ctx: &Ctx,
    mut m: Metrics,
    service: &Service,
    mix: &Mix,
    sources: &Sources,
    n: usize,
    sample_every: u64,
    side: impl FnOnce(PhaseStarts) -> SideResult + Send,
) -> Outcome {
    let mut notes = Vec::new();
    let phases = serving_phases(ctx, mix, sources, n);
    let opts = DriveOpts {
        seed: ctx.seed,
        // One full 32-member batch per worker.
        in_flight: ctx.workers * 32,
        sample_every,
        n,
    };
    let mut before = None;
    let mut outcome = None;
    // Heap peak of every block (a fixed-rate phase through its drain);
    // `peak_dram_mb` is their median, so one noisy block does not set it.
    let mut block_peaks = Vec::new();
    let (starts_tx, starts_rx) = mpsc::channel();
    // sage-lint: allow(thread-spawn) -- load generator: the publisher is a second client
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || side(starts_rx));
        let block_starts = measured_of(&phases, Mode::Fixed);
        let driven = load::drive(service, &phases, sources, &opts, &ctx.tracer, |p| {
            let phase = &phases[p];
            if phase.warmup || phase.mode == Mode::Drain {
                return;
            }
            // A side thread that needs no phase starts has hung up.
            let _ = starts_tx.send((Instant::now(), phase.dur));
            if !block_starts.contains(&p) {
                return;
            }
            if p == block_starts[0] {
                before = Some(service.stats());
            } else {
                block_peaks.push(alloc_track::peak_bytes());
            }
            alloc_track::reset_peak();
        });
        block_peaks.push(alloc_track::peak_bytes());
        drop(starts_tx);
        outcome = Some((driven, handle.join().expect("side thread panicked")));
    });
    let (driven, (mut snaps, side_attempted, side_failed)) = outcome.expect("drive ran");
    let after = service.stats();
    let peaks: Vec<f64> = block_peaks.into_iter().map(mb).collect();
    m.set("peak_dram_mb", median(&peaks).expect("every block ends"));
    notes.push(format!(
        "heap peak per block (MB): {:?}",
        peaks
            .iter()
            .map(|p| (p * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    serving_metrics(
        ctx,
        &mut m,
        &mut notes,
        &driven,
        &phases,
        (before.expect("window started"), after),
    );
    snaps.entry(0).or_insert_with(|| service.snapshot());
    let (checked, wrong) = check_samples(&driven.recs, &snaps, &mut notes);
    let bad = driven.recs.iter().filter(|r| !r.ok).count() as u64;
    notes.push(format!(
        "answers: {} requests, {bad} failed or malformed, {checked} checked bitwise, {wrong} wrong",
        driven.recs.len()
    ));
    Outcome {
        metrics: m,
        attempted: driven.recs.len() as u64 + checked + side_attempted,
        failed: bad + wrong + side_failed,
        notes,
    }
}

/// `point`: uniform BFS lookups on a monolithic plain CSR.
pub fn point(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut m = Metrics::new();
    let store = Store::create(&ctx.out, "point")?;
    let (service, cands, n) = setup(ctx, &mut m, |t, parent| {
        let csr = t.span("graph.build", parent, |_| {
            gen::rmat(SCALE, EDGE_FACTOR, RmatParams::default(), ctx.seed)
        });
        let path = store.fresh_path("base");
        t.span("graph.write", parent, |_| adapter::write_csr(&csr, &path))?;
        drop(csr);
        let g = t.span("graph.load", parent, |_| adapter::load_csr(&path))?;
        let (cands, n) = (non_isolated(&g), g.num_vertices());
        let svc = t.span("serve.start", parent, |_| {
            Service::start_mono(g, &path, ctx.workers, 0)
        });
        Ok((svc, cands, n))
    })?;
    let mix = load::points_only(POINT_QPS);
    let sources = Sources::uniform(cands);
    let mut out = serve_and_measure(ctx, m, &service, &mix, &sources, n, 32, |_| {
        (BTreeMap::new(), 0, 0)
    });
    drop(service);
    drop(store);
    out.notes.insert(0, format!("graph: R-MAT 2^{SCALE}, edge factor {EDGE_FACTOR}, plain CSR mapped read-only; {POINT_QPS} lookups/s fixed rate"));
    Ok(out)
}

/// `mixed`: lookups, probes and analytics on a 4-shard graph.
pub fn mixed(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut m = Metrics::new();
    let store = Store::create(&ctx.out, "mixed")?;
    let (service, cands, n) = setup(ctx, &mut m, |t, parent| {
        let sharded = t.span("graph.build", parent, |_| {
            let csr = gen::rmat(SCALE, EDGE_FACTOR, RmatParams::default(), ctx.seed);
            ShardedCsr::from_csr(&csr, SHARDS)
        });
        let path = store.fresh_path("base");
        t.span("graph.write", parent, |_| {
            adapter::write_sharded(&sharded, &path)
        })?;
        drop(sharded);
        let g = t.span("graph.load", parent, |_| adapter::load_sharded(&path))?;
        let (cands, n) = (non_isolated(&g), g.num_vertices());
        let svc = t.span("serve.start", parent, |_| {
            Service::start_sharded(g, ctx.workers)
        });
        Ok((svc, cands, n))
    })?;
    let mix = Mix {
        // About a quarter of the shards' saturation rate, for the reason
        // given at `POINT_QPS`.
        point_qps: 15.0,
        hop_qps: 4.0,
        connected_qps: 1.0,
        analytics_qps: 2.0,
    };
    let sources = Sources::uniform(cands);
    let mut out = serve_and_measure(ctx, m, &service, &mix, &sources, n, 16, |_| {
        (BTreeMap::new(), 0, 0)
    });
    if ctx.tracer.on() {
        // Direct calls on the served shards next to the same call on the
        // plain graph they were cut from (rebuilt from the seed, in DRAM).
        let Snap::Sharded(snap) = service.snapshot() else {
            unreachable!("mixed serves a sharded graph")
        };
        let mut rng = SplitMix64::new(hash64_pair(ctx.seed, 0x5A4D));
        let srcs: Vec<V> = (0..MSBFS_SOURCES).map(|_| sources.draw(&mut rng)).collect();
        let hook = sage_core::NoHook;
        let sharded_ms = reps_ms(3, || {
            std::hint::black_box(sage_core::sharded::msbfs_levels_sharded(
                snap.graph(),
                &srcs,
                &hook,
            ));
        });
        let cc_ms = reps_ms(1, || {
            std::hint::black_box(sage_core::sharded::connectivity_sharded(
                snap.graph(),
                &hook,
            ));
        });
        let plain = gen::rmat(SCALE, EDGE_FACTOR, RmatParams::default(), ctx.seed);
        let plain_ms = reps_ms(3, || {
            std::hint::black_box(algo::msbfs::msbfs_levels(&plain, &srcs));
        });
        out.metrics.set("core.msbfs_sharded32_ms", sharded_ms);
        out.metrics.set("core.connectivity_sharded_ms", cc_ms);
        out.metrics.set("core.msbfs32_ms", plain_ms);
        out.notes.push(format!(
            "direct calls: msbfs(32) {sharded_ms:.2} ms on {SHARDS} shards vs {plain_ms:.2} ms plain; connectivity on shards {cc_ms:.2} ms"
        ));
    }
    drop(service);
    drop(store);
    out.notes.insert(0, format!(
        "graph: R-MAT 2^{SCALE}, edge factor {EDGE_FACTOR}, {SHARDS} shards mapped read-only; rates/s: lookups {}, hop probes {}, connectivity {}, analytics {}",
        mix.point_qps, mix.hop_qps, mix.connected_qps, mix.analytics_qps
    ));
    Ok(out)
}

/// The tail of a per-layer sample by the rule of [`tail`], or its maximum
/// when the sample is too small for the rule to reach p90; 0 when empty.
fn tail_or_max(v: &[f64]) -> f64 {
    match tail(v) {
        Some((pct, x)) if pct >= 90.0 => x,
        _ => v.iter().copied().fold(0.0, f64::max),
    }
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn reps_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms(t.elapsed())
        })
        .collect();
    median(&v).expect("at least one rep")
}

/// Updates per publish.
const PUBLISH_BATCH: usize = 1000;
/// Seconds between publishes.
const PUBLISH_EVERY: Duration = Duration::from_millis(1000);

/// Publish number `i`'s batch: three quarters inserts of random pairs, one
/// quarter deletes of edges present in `g`.
fn update_batch(g: &Csr, cands: &[V], seed: u64, i: u64) -> Vec<EdgeUpdate> {
    let mut rng = SplitMix64::new(hash64_pair(seed, 0xB0B0 + i));
    let n = g.num_vertices() as u64;
    (0..PUBLISH_BATCH)
        .map(|j| {
            if j % 4 == 3 {
                let u = cands[rng.next_below(cands.len() as u64) as usize];
                let deg = g.degree(u) as u64;
                if deg > 0 {
                    return EdgeUpdate::delete(u, g.neighbor_at(u, rng.next_below(deg) as usize));
                }
            }
            let u = rng.next_below(n) as V;
            let v = (u as u64 + 1 + rng.next_below(n - 1)) % n;
            EdgeUpdate::insert(u, v as V)
        })
        .collect()
}

/// `publish`: Zipf lookups on a monolithic CSR beside periodic publishes.
pub fn publish(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut m = Metrics::new();
    let store = Store::create(&ctx.out, "publish")?;
    let (service, cands, n) = setup(ctx, &mut m, |t, parent| {
        let csr = t.span("graph.build", parent, |_| {
            gen::rmat(SCALE, EDGE_FACTOR, RmatParams::default(), ctx.seed)
        });
        let path = store.fresh_path("base");
        t.span("graph.write", parent, |_| adapter::write_csr(&csr, &path))?;
        // The budget sits well above one flush, so no publish is refused.
        let budget = 4 * adapter::csr_file_words(&csr);
        drop(csr);
        let g = t.span("graph.load", parent, |_| adapter::load_csr(&path))?;
        let (cands, n) = (non_isolated(&g), g.num_vertices());
        let svc = t.span("serve.start", parent, |_| {
            Service::start_mono(g, &path, ctx.workers, budget)
        });
        Ok((svc, cands, n))
    })?;
    let mix = load::points_only(POINT_QPS);
    let sources = Sources::zipf(cands.clone(), 1.1, hash64_pair(ctx.seed, 0x21FF));
    let mut publish_s = Vec::new();
    let mut words = Vec::new();
    let mut read_words = Vec::new();
    let mut errors = Vec::new();
    // Publishes are due every `PUBLISH_EVERY` from the start of each
    // measured phase until its end, so every phase of a kind sees the same
    // number of publishes at the same offsets.
    let mut publisher = |starts: PhaseStarts| {
        let mut snaps = BTreeMap::new();
        let (mut i, mut attempted, mut failed) = (0u64, 0, 0);
        let (mut due, mut end): (Option<Instant>, Instant) = (None, Instant::now());
        loop {
            let wait = due.map_or(DRAIN_MAX, |d| d.saturating_duration_since(Instant::now()));
            match starts.recv_timeout(wait) {
                Ok((start, dur)) => (due, end) = (Some(start), start + dur),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            let Some(d) = due.filter(|&d| d <= Instant::now()) else {
                continue;
            };
            due = Some(d + PUBLISH_EVERY).filter(|&next| next < end);
            let Snap::Mono(cur) = service.snapshot() else {
                unreachable!("publish serves a monolithic graph")
            };
            let batch = update_batch(cur.graph(), &cands, ctx.seed, i);
            let t = Instant::now();
            let id = ctx.tracer.open("serve.publish_updates", None, i);
            let res = service.publish_updates(&batch, &store);
            ctx.tracer.close(id);
            attempted += 1;
            match res {
                Ok(report) => {
                    publish_s.push(t.elapsed().as_secs_f64());
                    words.push(report.graph_write as f64);
                    read_words.push(report.traffic.graph_read as f64);
                    let snap = service.snapshot();
                    if snap.epoch() != report.epoch {
                        failed += 1;
                        errors.push(format!(
                            "publish {i}: serving epoch {} after publishing {}",
                            snap.epoch(),
                            report.epoch
                        ));
                    }
                    snaps.insert(report.epoch, snap);
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("publish {i} failed: {e}"));
                }
            }
            i += 1;
        }
        (snaps, attempted, failed)
    };
    // Epoch 0 must be kept before any publish replaces it.
    let first = service.snapshot();
    let mut out = serve_and_measure(ctx, m, &service, &mix, &sources, n, 16, |starts| {
        let (mut snaps, a, f) = publisher(starts);
        snaps.insert(0, first);
        (snaps, a, f)
    });
    out.notes.extend(errors);
    let mt = &mut out.metrics;
    mt.set("serve.publish_s", median(&publish_s).unwrap_or(0.0));
    mt.set("nvram.publish_write_words", median(&words).unwrap_or(0.0));
    mt.set(
        "nvram.publish_read_words",
        median(&read_words).unwrap_or(0.0),
    );
    mt.set("graph.store_mb", mb(store.bytes_of("epoch")));
    out.notes.push(format!(
        "publishes: {} of {PUBLISH_BATCH} updates every {:?}; median {:.4} s, {} NVRAM words written each",
        publish_s.len(),
        PUBLISH_EVERY,
        median(&publish_s).unwrap_or(0.0),
        median(&words).unwrap_or(0.0)
    ));
    if publish_s.len() < 3 {
        out.failed += 1;
        out.notes
            .push("fewer than three publishes completed in the window".into());
    }
    if ctx.tracer.on() {
        // The same public steps `publish_updates` takes, one by one, after
        // the window (three publishes, medians).
        let mut steps: [Vec<f64>; 6] = Default::default();
        for k in 0..3u64 {
            let Snap::Mono(cur) = service.snapshot() else {
                unreachable!()
            };
            let batch = update_batch(cur.graph(), &cands, ctx.seed, 1_000_000 + k);
            drop(cur);
            let (step_ms, _) = service.publish_steps(&batch, &store)?;
            for (s, v) in steps.iter_mut().zip(step_ms) {
                s.push(v);
            }
        }
        for (name, v) in [
            "core.overlay_apply_ms",
            "core.overlay_compact_ms",
            "serve.rebuild_ms",
            "graph.flush_ms",
            "graph.reload_ms",
            "serve.swap_ms",
        ]
        .into_iter()
        .zip(&steps)
        {
            mt.set(name, median(v).expect("three steps"));
        }
    }
    drop(service);
    drop(store);
    out.notes.insert(0, format!(
        "graph: R-MAT 2^{SCALE}, edge factor {EDGE_FACTOR}, plain CSR mapped read-only; Zipf(1.1) lookups at {}/s",
        mix.point_qps
    ));
    Ok(out)
}

/// The six direct calls of `engine`.
use crate::metrics::CALLS;
/// Single-source BFS calls per round.
const BFS_PER_ROUND: usize = 96;
/// Multi-source BFS calls per round.
const MSBFS_PER_ROUND: usize = 4;

/// Run engine call `call` on `g`; returns a digest of its output.
fn engine_call<G: Graph>(g: &G, call: &str, srcs: &[V]) -> u64 {
    match call {
        "bfs" => check::digest_words(algo::bfs::bfs_levels(g, srcs[0]).0),
        "msbfs32" => check::digest_words(
            algo::msbfs::msbfs_levels(g, srcs)
                .levels
                .into_iter()
                .flatten(),
        ),
        "connectivity" => check::digest_words(
            sage_core::seq::canonicalize_labels(&algo::connectivity::connectivity(g, 0.2, 7))
                .into_iter()
                .map(u64::from),
        ),
        "pagerank" => check::digest_words(
            algo::pagerank::pagerank_damped(g, 1e-6, 10, algo::pagerank::DAMPING)
                .ranks
                .into_iter()
                .map(f64::to_bits),
        ),
        "kcore" => check::digest_words(algo::kcore::kcore(g).coreness.into_iter().map(u64::from)),
        "triangle" => algo::triangle::triangle_count(g).count,
        _ => unreachable!("unknown engine call {call}"),
    }
}

/// `engine`: direct library calls on a compressed web graph.
pub fn engine(ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut m = Metrics::new();
    let mut notes = Vec::new();
    let store = Store::create(&ctx.out, "engine")?;
    let (g, cands) = setup(ctx, &mut m, |t, parent| {
        let comp = t.span("graph.build", parent, |_| {
            let csr = gen::rmat(SCALE, EDGE_FACTOR, RmatParams::web(), ctx.seed);
            CompressedCsr::from_csr(&csr, 64)
        });
        let path = store.fresh_path("base");
        t.span("graph.write", parent, |_| {
            adapter::write_compressed(&comp, &path)
        })?;
        drop(comp);
        let g = t.span("graph.load", parent, |_| adapter::load_compressed(&path))?;
        let cands = non_isolated(&g);
        Ok((g, cands))
    })?;
    let mut rng = SplitMix64::new(hash64_pair(ctx.seed, 0xE9));
    let mut draw = |k: usize| -> Vec<V> {
        (0..k)
            .map(|_| cands[rng.next_below(cands.len() as u64) as usize])
            .collect()
    };
    // Warm-up: one call of each kind, untimed.
    for call in CALLS {
        if call != "triangle" {
            engine_call(&g, call, &draw(MSBFS_SOURCES));
        }
    }
    struct Call {
        name: &'static str,
        srcs: Vec<V>,
        secs: f64,
        peak: u64,
        graph_read: u64,
        digest: u64,
    }
    let mut calls: Vec<Call> = Vec::new();
    let window = Instant::now();
    let mut rounds = 0;
    while rounds < 4 || window.elapsed().as_secs_f64() < ctx.seconds {
        let mut plan: Vec<(&'static str, Vec<V>)> = Vec::new();
        plan.extend((0..BFS_PER_ROUND).map(|_| ("bfs", draw(1))));
        plan.extend((0..MSBFS_PER_ROUND).map(|_| ("msbfs32", draw(MSBFS_SOURCES))));
        for call in &CALLS[2..] {
            // Triangle counting costs more than the rest of a round; every
            // other round keeps the window's time on the other calls.
            if *call != "triangle" || rounds % 2 == 0 {
                plan.push((call, Vec::new()));
            }
        }
        for (name, srcs) in plan {
            alloc_track::reset_peak();
            let scope = MeterScope::new();
            let id = ctx.tracer.open(span_name(name), None, calls.len() as u64);
            let t = Instant::now();
            let digest = scope.enter(|| engine_call(&g, name, &srcs));
            let secs = t.elapsed().as_secs_f64();
            ctx.tracer.close(id);
            calls.push(Call {
                name,
                srcs,
                secs,
                peak: alloc_track::peak_bytes(),
                graph_read: scope.snapshot().graph_read,
                digest,
            });
        }
        rounds += 1;
    }
    let window_s = window.elapsed().as_secs_f64();
    let of = |name: &str| -> Vec<&Call> { calls.iter().filter(|c| c.name == name).collect() };
    // Times as in the served workloads: per quarter of each call's samples
    // in call order, then the least disturbed quarter.
    let quarters = |name: &str| -> Vec<Vec<f64>> {
        let v: Vec<f64> = of(name).iter().map(|c| c.secs * 1e3).collect();
        v.chunks(v.len().div_ceil(BLOCKS)).map(<[f64]>::to_vec).collect()
    };
    let med_ms = |name: &str| best_median(&quarters(name)).expect("called");
    let bfs_ms: Vec<f64> = quarters("bfs").concat();
    m.set("p50_ms", med_ms("bfs"));
    let (pct, p99) = best_tail(&quarters("bfs")).unwrap_or((0.0, 0.0));
    m.set("p99_ms", p99);
    m.set("load.samples", bfs_ms.len() as f64);
    m.set("sat_qps", MSBFS_SOURCES as f64 / (med_ms("msbfs32") / 1e3));
    let medians: Vec<f64> = CALLS.iter().map(|c| med_ms(c)).collect();
    m.set("suite_geomean_ms", geomean(&medians).unwrap_or(0.0));
    m.set(
        "peak_dram_mb",
        mb(calls.iter().map(|c| c.peak).max().unwrap_or(0)),
    );
    for (call, med) in CALLS.iter().zip(&medians) {
        m.set(&format!("core.{call}_ms"), *med);
        let words: Vec<f64> = of(call).iter().map(|c| c.graph_read as f64).collect();
        let peaks: Vec<f64> = of(call).iter().map(|c| mb(c.peak)).collect();
        m.set(
            &format!("nvram.{call}.graph_read_words"),
            median(&words).expect("called"),
        );
        m.set(
            &format!("nvram.{call}.peak_dram_mb"),
            median(&peaks).expect("called"),
        );
        notes.push(format!(
            "{call}: median {med:.3} ms over {} calls",
            of(call).len()
        ));
    }
    notes.insert(0, format!(
        "graph: web R-MAT 2^{SCALE}, edge factor {EDGE_FACTOR}, compressed, mapped read-only; {rounds} rounds in {window_s:.2} s; {} BFS calls, tail = lowest over quarters of each quarter's p{pct:.2} ({} samples beyond in each)",
        bfs_ms.len(),
        crate::stats::TAIL_BEYOND,
    ));

    if ctx.tracer.on() {
        // One call of each kind on a one-thread pool against its reported
        // time on the global pool.
        let one = sage_parallel::Pool::new(1);
        let srcs = draw(MSBFS_SOURCES);
        for (call, med) in CALLS.iter().zip(&medians) {
            let t = Instant::now();
            one.install(|| engine_call(&g, call, &srcs));
            m.set(&format!("parallel.speedup.{call}"), ms(t.elapsed()) / med);
        }
        let decode: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(g.decode_checksum());
                g.size_bytes() as f64 / (1u64 << 20) as f64 / t.elapsed().as_secs_f64()
            })
            .collect();
        m.set("graph.decode_mbps", median(&decode).expect("three decodes"));
    }

    // Answers: the same calls on the plain CSR, outside the window.
    let plain = gen::rmat(SCALE, EDGE_FACTOR, RmatParams::web(), ctx.seed);
    let (mut checked, mut wrong) = (0u64, 0u64);
    // Whole-graph calls have one answer per graph; source-dependent ones
    // are checked on a seeded sample.
    let mut whole: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, c) in calls.iter().enumerate() {
        let want = match c.name {
            "bfs" | "msbfs32" => {
                let every = if c.name == "bfs" { 16 } else { 4 };
                if !load::sampled(ctx.seed, i as u64, every) {
                    continue;
                }
                engine_call(&plain, c.name, &c.srcs)
            }
            _ => *whole
                .entry(c.name)
                .or_insert_with(|| engine_call(&plain, c.name, &c.srcs)),
        };
        checked += 1;
        if want != c.digest {
            wrong += 1;
            notes.push(format!(
                "engine call {i} ({}): output differs from the plain CSR",
                c.name
            ));
        }
    }
    notes.push(format!(
        "answers: {} calls, {checked} checked against the plain CSR, {wrong} wrong",
        calls.len()
    ));
    drop(g);
    drop(store);
    Ok(Outcome {
        metrics: m,
        attempted: calls.len() as u64 + checked,
        failed: wrong,
        notes,
    })
}

fn span_name(call: &str) -> &'static str {
    match call {
        "bfs" => "core.bfs",
        "msbfs32" => "core.msbfs32",
        "connectivity" => "core.connectivity",
        "pagerank" => "core.pagerank",
        "kcore" => "core.kcore",
        _ => "core.triangle",
    }
}
