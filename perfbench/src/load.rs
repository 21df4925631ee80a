//! Open-loop load: seeded request schedules, one submitting thread, and one
//! collector per query kind that sleeps in `Ticket::wait`.
//!
//! A fixed-rate phase sends each request when its schedule says it is due
//! and times it from that moment, so a stalled generator shows up as
//! latency and as lateness. A saturation phase keeps a fixed number of
//! point lookups in flight (closed loop) while the other streams keep their
//! schedule. Nothing spins: the generator sleeps until the next due time or
//! waits on a completion channel; collectors block on their tickets.

use crate::adapter::{Query, Service};
use crate::check;
use crate::trace::Tracer;
use sage_graph::V;
use sage_parallel::{hash64_pair, SplitMix64};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deadline class of a request, as the scheduler sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// BFS point lookups.
    Point,
    /// Connectivity and neighborhood probes.
    Probe,
    /// PageRank and k-core.
    Analytics,
}

impl Class {
    /// All classes, in priority order.
    pub const ALL: [Class; 3] = [Class::Point, Class::Probe, Class::Analytics];

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Probe => "probe",
            Class::Analytics => "analytics",
        }
    }
}

/// What a request asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// Single-source BFS.
    Point,
    /// Connectivity between two vertices.
    Connected,
    /// 1-hop neighborhood.
    Hop1,
    /// 2-hop neighborhood.
    Hop2,
    /// PageRank values of a few vertices.
    PageRank,
    /// k-core numbers of a few vertices.
    KCore,
}

impl Kind {
    /// All kinds.
    pub const ALL: [Kind; 6] = [
        Kind::Point,
        Kind::Connected,
        Kind::Hop1,
        Kind::Hop2,
        Kind::PageRank,
        Kind::KCore,
    ];

    /// The kind's deadline class.
    pub fn class(self) -> Class {
        match self {
            Kind::Point => Class::Point,
            Kind::Connected | Kind::Hop1 | Kind::Hop2 => Class::Probe,
            Kind::PageRank | Kind::KCore => Class::Analytics,
        }
    }

    /// Whether the kind traverses the whole graph. Hop probes touch a few
    /// neighborhoods; their sub-millisecond latency is mostly thread
    /// wake-up, so they stay out of `suite_geomean_ms`.
    pub fn whole_graph(self) -> bool {
        !matches!(self, Kind::Hop1 | Kind::Hop2)
    }

    /// Short label.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Connected => "connected",
            Kind::Hop1 => "hop1",
            Kind::Hop2 => "hop2",
            Kind::PageRank => "pagerank",
            Kind::KCore => "kcore",
        }
    }

    fn of(q: &Query) -> Kind {
        match q {
            Query::Bfs { .. } => Kind::Point,
            Query::Connected { .. } => Kind::Connected,
            Query::Neighborhood { hops: 1, .. } => Kind::Hop1,
            Query::Neighborhood { .. } => Kind::Hop2,
            Query::PageRank { .. } => Kind::PageRank,
            Query::KCore { .. } => Kind::KCore,
        }
    }
}

/// How point-lookup sources are drawn.
pub struct Sources {
    verts: Vec<V>,
    /// Cumulative weights over `verts` (Zipf); `None` = uniform.
    cdf: Option<Vec<f64>>,
}

impl Sources {
    /// Uniform over `verts`.
    pub fn uniform(verts: Vec<V>) -> Self {
        assert!(!verts.is_empty(), "no source candidates");
        Self { verts, cdf: None }
    }

    /// Zipf with exponent `s` over a seeded shuffle of `verts` (rank 1 is
    /// the hottest source).
    pub fn zipf(mut verts: Vec<V>, s: f64, seed: u64) -> Self {
        assert!(!verts.is_empty(), "no source candidates");
        let mut rng = SplitMix64::new(seed);
        for i in (1..verts.len()).rev() {
            verts.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=verts.len())
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Self {
            verts,
            cdf: Some(cdf),
        }
    }

    /// One source.
    pub fn draw(&self, rng: &mut SplitMix64) -> V {
        match &self.cdf {
            None => self.verts[rng.next_below(self.verts.len() as u64) as usize],
            Some(cdf) => {
                let x = rng.next_f64();
                let i = cdf.partition_point(|&c| c < x).min(self.verts.len() - 1);
                self.verts[i]
            }
        }
    }
}

/// Request rates of one workload's streams (requests per second; 0 = off).
#[derive(Clone, Debug)]
pub struct Mix {
    /// BFS point lookups (fixed-rate phases only).
    pub point_qps: f64,
    /// 1-hop and 2-hop neighborhood probes, alternating.
    pub hop_qps: f64,
    /// Connectivity probes.
    pub connected_qps: f64,
    /// PageRank and k-core requests, alternating.
    pub analytics_qps: f64,
}

/// Point lookups only, at `qps`.
pub fn points_only(qps: f64) -> Mix {
    Mix {
        point_qps: qps,
        hop_qps: 0.0,
        connected_qps: 0.0,
        analytics_qps: 0.0,
    }
}

/// Iterations of a served PageRank; every request shares them (and the
/// default damping), so same-parameter batching applies.
const PAGERANK_ITERS: usize = 10;
/// Vertices whose values one analytics request reports.
const ANALYTICS_VERTICES: usize = 4;

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Item {
    /// Offset from the phase start at which the request is due.
    pub at: Duration,
    /// The request.
    pub query: Query,
}

/// The analytics request number `i` of a stream: PageRank and k-core
/// alternate; every fourth k-core asks for full coreness (`k = None`).
fn analytics_query(i: u64, n: usize, rng: &mut SplitMix64) -> Query {
    let vertices: Vec<V> = (0..ANALYTICS_VERTICES)
        .map(|_| rng.next_below(n as u64) as V)
        .collect();
    if i.is_multiple_of(2) {
        Query::PageRank {
            iters: PAGERANK_ITERS,
            damping: sage_serve::DEFAULT_DAMPING,
            vertices,
        }
    } else {
        let k = if (i / 2) % 4 == 3 { None } else { Some(8) };
        Query::KCore { k, vertices }
    }
}

/// The requests of a phase of length `dur`, sorted by due time. Each stream
/// sends at a fixed interval with its own offset; `with_points = false`
/// leaves the point stream out (a saturation phase drives it closed-loop).
pub fn schedule(
    mix: &Mix,
    sources: &Sources,
    n: usize,
    dur: Duration,
    with_points: bool,
    rng: &mut SplitMix64,
) -> Vec<Item> {
    let mut items = Vec::new();
    let stream =
        |qps: f64, offset: f64, items: &mut Vec<Item>, make: &mut dyn FnMut(u64) -> Query| {
            if qps <= 0.0 {
                return;
            }
            let interval = 1.0 / qps;
            let mut i = 0u64;
            loop {
                let at = interval * (i as f64 + offset);
                if at >= dur.as_secs_f64() {
                    break;
                }
                items.push(Item {
                    at: Duration::from_secs_f64(at),
                    query: make(i),
                });
                i += 1;
            }
        };
    // One RNG per stream, forked from the phase RNG, so the streams draw
    // independently of each other's lengths.
    let mut fork = || SplitMix64::new(rng.next_u64());
    if with_points {
        let mut r = fork();
        stream(mix.point_qps, 0.0, &mut items, &mut |_| Query::Bfs {
            src: sources.draw(&mut r),
        });
    }
    let mut r = fork();
    stream(mix.hop_qps, 0.25, &mut items, &mut |i| {
        Query::Neighborhood {
            src: sources.draw(&mut r),
            hops: if i % 2 == 0 { 1 } else { 2 },
        }
    });
    let mut r = fork();
    stream(mix.connected_qps, 0.5, &mut items, &mut |_| {
        Query::Connected {
            u: sources.draw(&mut r),
            v: sources.draw(&mut r),
        }
    });
    let mut r = fork();
    stream(mix.analytics_qps, 0.75, &mut items, &mut |i| {
        analytics_query(i, n, &mut r)
    });
    items.sort_by_key(|it| it.at);
    items
}

/// What a phase does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Send the schedule at its due times.
    Fixed,
    /// Keep `in_flight` point lookups outstanding; other streams keep their
    /// schedule.
    Saturate,
    /// Send nothing until every point lookup has completed (or the phase's
    /// length runs out), so a saturation backlog never leaks into the next
    /// fixed-rate phase.
    Drain,
}

/// One phase of a run.
pub struct Phase {
    /// What it does.
    pub mode: Mode,
    /// Part of the discarded warm-up: neither measured nor traced.
    pub warmup: bool,
    /// Length (for `Drain`, the longest it may wait).
    pub dur: Duration,
    /// Its scheduled requests.
    pub items: Vec<Item>,
}

/// Everything measured about one completed request.
#[derive(Clone, Debug)]
pub struct Rec {
    /// Request id (submission order).
    pub id: u64,
    /// What it asked.
    pub kind: Kind,
    /// Index of the phase it was sent in.
    pub phase: usize,
    /// When it was due.
    pub due: Instant,
    /// When the generator called `submit`.
    pub sent: Instant,
    /// When its collector saw the result.
    pub done: Instant,
    /// Epoch the answer is tagged with.
    pub epoch: u64,
    /// NVRAM graph words the answer read.
    pub graph_read: u64,
    /// DRAM (aux) words the answer read and wrote.
    pub aux_words: u64,
    /// Answered, wrote no graph word, and (point lookups) well formed.
    pub ok: bool,
    /// For sampled requests: the query and the digest of its answer.
    pub sample: Option<(Query, u64)>,
}

impl Rec {
    /// Client latency from due time to completion, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in milliseconds.
    pub fn lateness_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Completions closer together than this belong to one burst (the members
/// of one batch reach their collector one after another).
const BURST_GAP: Duration = Duration::from_millis(2);

/// Completions per second, measured between completion bursts: the members
/// of every burst after the first, over the time from the first burst to
/// the last. Batches complete in bursts, so counting completions inside a
/// fixed window would round the rate to whole batches at both edges.
/// `None` with fewer than two bursts.
pub fn completion_rate(mut done: Vec<Instant>) -> Option<f64> {
    done.sort_unstable();
    let mut starts: Vec<(Instant, usize)> = Vec::new();
    let mut prev: Option<Instant> = None;
    for t in done {
        match (prev, starts.last_mut()) {
            (Some(p), Some(last)) if t.saturating_duration_since(p) < BURST_GAP => last.1 += 1,
            _ => starts.push((t, 1)),
        }
        prev = Some(t);
    }
    if starts.len() < 2 {
        return None;
    }
    let members: usize = starts[1..].iter().map(|b| b.1).sum();
    let span = starts[starts.len() - 1].0 - starts[0].0;
    Some(members as f64 / span.as_secs_f64())
}

/// Whether request `id` belongs to the checked sample (about one in
/// `every`, chosen by the seed).
pub fn sampled(seed: u64, id: u64, every: u64) -> bool {
    hash64_pair(seed, id).is_multiple_of(every)
}

/// Settings of [`drive`].
pub struct DriveOpts {
    /// Workload seed (chooses the checked sample).
    pub seed: u64,
    /// Point lookups kept in flight during a saturation phase.
    pub in_flight: usize,
    /// Check about one request in this many bitwise.
    pub sample_every: u64,
    /// Vertices of the served graph (for the answer-shape check).
    pub n: usize,
}

struct Job {
    id: u64,
    /// Record spans for it: a traced run traces every measured request
    /// except closed-loop saturation lookups, whose latency is queueing.
    traced: bool,
    phase: usize,
    due: Instant,
    sent: Instant,
    submit_ns: u64,
    query: Query,
    ticket: crate::adapter::Ticket,
}

/// What [`drive`] observed.
pub struct Driven {
    /// Completed requests.
    pub recs: Vec<Rec>,
    /// Start and end of every phase.
    pub bounds: Vec<(Instant, Instant)>,
    /// Queue depth at the end of every phase.
    pub depth_end: Vec<u64>,
}

/// Run `phases` against `service` from the calling thread, then wait for
/// every request to complete. `on_phase` is called at each phase start.
pub fn drive(
    service: &Service,
    phases: &[Phase],
    sources: &Sources,
    opts: &DriveOpts,
    tracer: &Tracer,
    mut on_phase: impl FnMut(usize),
) -> Driven {
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    // sage-lint: allow(thread-spawn) -- load generator: collector threads simulate clients
    std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for kind in Kind::ALL {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let credit = credit_tx.clone();
            handles.push(scope.spawn(move || collect(kind, rx, credit, opts, tracer)));
        }
        drop(credit_tx);
        let mut rng = SplitMix64::new(hash64_pair(opts.seed, 0x5A7));
        let mut next_id = 0u64;
        let mut outstanding = 0usize;
        let mut bounds = Vec::new();
        let mut depth_end = Vec::new();
        let mut send = |phase: usize, due: Instant, query: Query, outstanding: &mut usize| {
            let kind = Kind::of(&query);
            let traced = tracer.on()
                && !phases[phase].warmup
                && match phases[phase].mode {
                    Mode::Fixed => true,
                    Mode::Saturate => kind != Kind::Point,
                    Mode::Drain => false,
                };
            if kind == Kind::Point {
                *outstanding += 1;
            }
            let sent = Instant::now();
            let ticket = service.submit(query.clone());
            let submit_ns = sent.elapsed().as_nanos() as u64;
            let job = Job {
                id: next_id,
                traced,
                phase,
                due,
                sent,
                submit_ns,
                query,
                ticket,
            };
            next_id += 1;
            senders[kind as usize]
                .send(job)
                .expect("collector exited early");
        };
        for (p, phase) in phases.iter().enumerate() {
            on_phase(p);
            let start = Instant::now();
            let end = start + phase.dur;
            let mut next = 0;
            loop {
                while credit_rx.try_recv().is_ok() {
                    outstanding -= 1;
                }
                let now = Instant::now();
                if now >= end {
                    break;
                }
                if phase.mode == Mode::Drain {
                    if outstanding == 0 {
                        break;
                    }
                    if credit_rx.recv_timeout(end - now).is_ok() {
                        outstanding -= 1;
                    }
                    continue;
                }
                while next < phase.items.len() && start + phase.items[next].at <= now {
                    let due = start + phase.items[next].at;
                    send(p, due, phase.items[next].query.clone(), &mut outstanding);
                    next += 1;
                }
                let saturate = phase.mode == Mode::Saturate;
                if saturate {
                    while outstanding < opts.in_flight {
                        let q = Query::Bfs {
                            src: sources.draw(&mut rng),
                        };
                        send(p, Instant::now(), q, &mut outstanding);
                    }
                }
                let wake = phase
                    .items
                    .get(next)
                    .map_or(end, |it| (start + it.at).min(end));
                let wait = wake.saturating_duration_since(Instant::now());
                if saturate {
                    if credit_rx.recv_timeout(wait).is_ok() {
                        outstanding -= 1;
                    }
                } else {
                    std::thread::sleep(wait);
                }
            }
            depth_end.push(service.stats().queue_depth);
            bounds.push((start, Instant::now()));
        }
        drop(senders);
        let mut recs: Vec<Rec> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("collector panicked"))
            .collect();
        recs.sort_by_key(|r| r.id);
        Driven {
            recs,
            bounds,
            depth_end,
        }
    })
}

fn collect(
    kind: Kind,
    rx: mpsc::Receiver<Job>,
    credit: mpsc::Sender<()>,
    opts: &DriveOpts,
    tracer: &Tracer,
) -> Vec<Rec> {
    let class = kind.class();
    let (req_name, engine_name) = match class {
        Class::Point => ("req.point", "serve.engine.point"),
        Class::Probe => ("req.probe", "serve.engine.probe"),
        Class::Analytics => ("req.analytics", "serve.engine.analytics"),
    };
    let mut recs = Vec::new();
    for job in rx {
        let r = job.ticket.wait();
        let done = Instant::now();
        if kind == Kind::Point {
            // The generator may have stopped listening; that is fine.
            let _ = credit.send(());
        }
        let failed = matches!(r.response, crate::adapter::Response::Failed { .. });
        let shape_ok = match job.query {
            Query::Bfs { src } => check::bfs_shape_ok(&r.response, opts.n, src),
            _ => true,
        };
        let sample = sampled(opts.seed, job.id, opts.sample_every)
            .then(|| (job.query.clone(), check::digest(&r.response)));
        if job.traced {
            let req = tracer.record(req_name, job.due, done, None, job.id);
            tracer.record("load.late", job.due, job.sent, req, job.id);
            let submitted = job.sent + Duration::from_nanos(job.submit_ns);
            tracer.record("serve.submit", job.sent, submitted, req, job.id);
            let engine_start = done
                .checked_sub(Duration::from_secs_f64(r.seconds))
                .unwrap_or(job.due);
            tracer.record(engine_name, engine_start, done, req, job.id);
        }
        recs.push(Rec {
            id: job.id,
            kind,
            phase: job.phase,
            due: job.due,
            sent: job.sent,
            done,
            epoch: r.epoch,
            graph_read: r.traffic.graph_read,
            aux_words: r.traffic.aux_read + r.traffic.aux_write,
            ok: !failed && shape_ok && r.traffic.graph_write == 0,
            sample,
        });
    }
    recs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Mix {
        Mix {
            point_qps: 40.0,
            hop_qps: 4.0,
            connected_qps: 0.5,
            analytics_qps: 1.0,
        }
    }

    fn render(items: &[Item]) -> Vec<String> {
        items
            .iter()
            .map(|it| format!("{:?} {:?}", it.at, it.query))
            .collect()
    }

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let sources = Sources::zipf((0..1000).collect(), 1.1, 9);
        let make = |seed| {
            let mut rng = SplitMix64::new(seed);
            render(&schedule(
                &mix(),
                &sources,
                1000,
                Duration::from_secs(5),
                true,
                &mut rng,
            ))
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
        let items = make(7);
        // 200 points + 20 hops + 2 connectivity probes + 5 analytics.
        assert_eq!(items.len(), 200 + 20 + 2 + 5);
    }

    #[test]
    fn streams_keep_their_rate_and_order() {
        let sources = Sources::uniform((0..100).collect());
        let mut rng = SplitMix64::new(1);
        let items = schedule(
            &mix(),
            &sources,
            100,
            Duration::from_secs(2),
            false,
            &mut rng,
        );
        assert!(items.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(items
            .iter()
            .all(|it| !matches!(it.query, Query::Bfs { .. })));
        let analytics: Vec<Kind> = items
            .iter()
            .map(|it| Kind::of(&it.query))
            .filter(|k| k.class() == Class::Analytics)
            .collect();
        assert_eq!(analytics, vec![Kind::PageRank, Kind::KCore]);
    }

    #[test]
    fn completion_rate_counts_whole_bursts_between_edges() {
        let t0 = Instant::now();
        let at = |ms: u64, us: u64| t0 + Duration::from_millis(ms) + Duration::from_micros(us);
        // Four batches of 32, 100 ms apart, members 20 us apart.
        let done: Vec<Instant> = (0..4)
            .flat_map(|b| (0..32).map(move |m| at(100 * b, 20 * m)))
            .collect();
        let rate = completion_rate(done).unwrap();
        assert!((rate - 96.0 / 0.3).abs() < 1e-9, "rate {rate}");
        assert_eq!(completion_rate(vec![at(0, 0), at(0, 5)]), None);
    }

    #[test]
    fn zipf_sources_are_skewed_and_seeded() {
        let s = Sources::zipf((0..10_000).collect(), 1.1, 3);
        let mut rng = SplitMix64::new(5);
        let draws: Vec<V> = (0..20_000).map(|_| s.draw(&mut rng)).collect();
        let top = s.verts[0];
        let hits = draws.iter().filter(|&&v| v == top).count();
        assert!(hits > 20_000 / 20, "rank-1 source drawn only {hits} times");
        let mut rng = SplitMix64::new(5);
        assert_eq!(s.draw(&mut rng), draws[0]);
    }
}
