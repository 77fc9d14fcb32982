//! One run of one workload: set-up, saturation phase, open-loop
//! phase, shutdown and verification — and, when traced, the layers
//! pass and the span trace. The run shape is the same for every
//! workload; see the README for what each phase measures.

use crate::gen::Generator;
use crate::layers;
use crate::load::{
    kept_schedule, open_loop, query_client, saturate, OpenLoop, QuerySample, Saturation, DONE,
    IDLE, LATE_SHARE_GOAL, MAX_LATE_SHARE, OPEN_LOOP, SATURATION,
};
use crate::place::{steal_seconds, Placement};
use crate::spec::{EngineKind, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::target::{
    durability, mean_ns, ratio, snapshot_all, Counters, Edges, Engine, FinalState, QueryKind,
    ShardedCounts, Sink, TempDir,
};
use crate::trace::Trace;
use aspen::{ChunkParams, Graph, GraphView, ShardRouter};
use graphgen::Update;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the open-loop phase.
    pub seconds: f64,
    /// Traced run: time every push and query step, record spans, run
    /// the layers pass, report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    /// Falsify the reference result, so that verification has
    /// something to catch.
    #[cfg(test)]
    pub corrupt_reference: bool,
}

impl Options {
    /// How many times a run sets up: an untraced run reports the
    /// median time as `setup_s`; a traced run reports no `setup_s`.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

/// Set-ups of an untraced run.
const SETUPS: usize = 5;

/// Values for a fixed list of metric names: every name is set exactly
/// once, so a metric can neither be forgotten nor misspelt.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this list"));
        assert!(self.values[i].is_none(), "`{name}` set twice");
        assert!(value.is_finite(), "`{name}` is {value}");
        self.values[i] = Some(value);
    }

    /// Every metric with its value, in list order.
    pub fn finish(&self) -> Vec<(MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| {
                (
                    *d,
                    v.unwrap_or_else(|| panic!("`{}` was never set", d.name)),
                )
            })
            .collect()
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check or lost operation kind.
    pub failures: Vec<String>,
    /// The end-to-end metrics (of a traced run: as seen under tracing).
    pub end_to_end: Vec<(MetricDef, f64)>,
    /// The per-layer metrics; empty unless traced.
    pub per_layer: Vec<(MetricDef, f64)>,
    /// Sample counts, tails and other context, as `(label, text)`.
    pub notes: Vec<(&'static str, String)>,
    /// Per-layer self time per operation; traced runs only.
    pub self_times: Option<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// The graph a sequential application of the whole stream must give:
/// undirected edges as `(min, max)`.
struct Reference {
    edges: HashSet<(u32, u32)>,
}

/// Order-independent digest of one arc.
fn arc_digest(u: u32, v: u32) -> u64 {
    parlib::hash64((u64::from(u) << 32) | u64::from(v))
}

/// Order-independent digest of every arc of `view`.
fn view_digest(view: &dyn GraphView) -> u64 {
    let mut acc = 0u64;
    for u in 0..view.id_bound() as u32 {
        view.for_each_neighbor(u, &mut |v| acc = acc.wrapping_add(arc_digest(u, v)));
    }
    acc
}

impl Reference {
    fn build(arcs: &[(u32, u32)], streams: [&[Update]; 2]) -> Reference {
        let mut edges: HashSet<(u32, u32)> = HashSet::with_capacity(arcs.len());
        edges.extend(arcs.iter().filter(|&&(u, v)| u < v));
        for u in streams.into_iter().flatten() {
            let (a, b) = u.endpoints();
            let key = (a.min(b), a.max(b));
            if u.is_insert() {
                edges.insert(key);
            } else {
                edges.remove(&key);
            }
        }
        Reference { edges }
    }

    fn num_arcs(&self) -> u64 {
        2 * self.edges.len() as u64
    }

    fn digest(&self) -> u64 {
        self.edges.iter().fold(0u64, |acc, &(u, v)| {
            acc.wrapping_add(arc_digest(u, v))
                .wrapping_add(arc_digest(v, u))
        })
    }

    fn arcs(&self) -> Vec<(u32, u32)> {
        self.edges
            .iter()
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect()
    }
}

/// Everything phase 0 produces.
struct Prepared {
    gen: Generator,
    hub: u32,
    sat: Vec<Update>,
    open: Vec<Update>,
    reference: Reference,
    engine: Engine,
    wal: Option<TempDir>,
}

/// The vertex of highest degree in a sorted arc list.
fn hub_of(arcs: &[(u32, u32)]) -> u32 {
    let mut best = (0usize, 0u32);
    let mut i = 0;
    while i < arcs.len() {
        let u = arcs[i].0;
        let run = arcs[i..].partition_point(|&(x, _)| x == u);
        if run > best.0 {
            best = (run, u);
        }
        i += run;
    }
    best.1
}

impl Prepared {
    /// Phase 0: generate the graph and the whole update stream from
    /// the seed, build and start the engine, compute the reference.
    fn new(w: &Workload, seed: u64, seconds: f64) -> Prepared {
        let gen = Generator::new(w, seed);
        let arcs = gen.initial_arcs();
        let hub = hub_of(&arcs);
        let sat = gen.stream(0, w.n_sat);
        let open = gen.stream(w.n_sat as u64, w.n_open(seconds));
        let wal = w.durable.then(|| TempDir::new("wal"));
        let engine = Engine::start(w, &arcs, hub, wal.as_ref());
        let reference = Reference::build(&arcs, [&sat, &open]);
        Prepared {
            gen,
            hub,
            sat,
            open,
            reference,
            engine,
            wal,
        }
    }

    /// Adds an edge no stream inserts to the reference.
    #[cfg(test)]
    fn with_falsified_reference(mut self) -> Prepared {
        let bogus = self.gen.probe_base() + crate::gen::PROBE_BLOCK;
        self.reference.edges.insert((bogus, bogus + 1));
        self
    }
}

/// What the two load phases and the query client saw.
struct Load {
    sat: Vec<Saturation>,
    open: OpenLoop,
    queries: Vec<QuerySample>,
    sat_counters: Counters,
    open_counters: Counters,
    all_counters: Counters,
    /// Forks, steals and sleeps of the global pool during saturation.
    runtime: [u64; 3],
    standing_read_ns: f64,
    pin_ns: f64,
    /// Share of all CPUs' time the host kept from this machine during
    /// the two phases.
    steal_share: f64,
}

/// Phases 1 and 2, on the load generator's own thread and CPU.
fn drive(p: &Prepared, w: &Workload, traced: bool) -> Load {
    let stats = p.engine.stats();
    let phase = AtomicU8::new(IDLE);
    let runtime_totals = || {
        let t = rayon::current_runtime_stats().totals();
        [t.forks, t.steals, t.sleeps]
    };
    std::thread::scope(|s| {
        let client = s.spawn(|| query_client(&p.engine, p.hub, w.query, &phase));
        Placement::get().enter_generator();
        let began = (Instant::now(), steal_seconds(None));
        let snap0 = snapshot_all(&stats);
        let rt0 = runtime_totals();
        phase.store(SATURATION, Ordering::Release);
        let sat = saturation_phase(&p.engine, &p.gen, &p.sat, traced);
        let snap1 = snapshot_all(&stats);
        let rt1 = runtime_totals();
        phase.store(OPEN_LOOP, Ordering::Release);
        let open = open_loop(&p.engine, &p.gen, &p.open, w.rate, traced);
        let snap2 = snapshot_all(&stats);
        let steal_share = ratio(
            steal_seconds(None) - began.1,
            began.0.elapsed().as_secs_f64() * Placement::get().cpus() as f64,
        );
        phase.store(DONE, Ordering::Release);
        let queries = client.join().expect("query client panicked");
        let standing_read_ns = p.engine.standing("cc").map_or(0.0, |h| {
            mean_ns(|| {
                std::hint::black_box(h.read());
            })
        });
        Load {
            sat,
            open,
            queries,
            sat_counters: Counters::between(&snap0, &snap1),
            open_counters: Counters::between(&snap1, &snap2),
            all_counters: Counters::between(&snap0, &snap2),
            runtime: [rt1[0] - rt0[0], rt1[1] - rt0[1], rt1[2] - rt0[2]],
            standing_read_ns,
            pin_ns: p.engine.pin_ns(),
            steal_share,
        }
    })
}

/// The saturation phase runs as this many closed-loop stretches, each
/// from its first push until its last update is visible. The reported
/// rate is the median over the stretches, which a stretch that shared
/// the box with a query (or with the host) does not move.
const STRETCHES: usize = 8;

/// Runs the saturation phase. A traced run times every push of every
/// second stretch; what that costs is the gap between the two halves.
fn saturation_phase(
    sink: &impl Sink,
    gen: &Generator,
    sat: &[Update],
    traced: bool,
) -> Vec<Saturation> {
    sat.chunks(sat.len() / STRETCHES)
        .enumerate()
        .map(|(i, stretch)| saturate(sink, gen, stretch, traced && i % 2 == 1))
        .collect()
}

/// Median updates per second over the stretches with `keep(index)`.
fn median_rate(sat: &[Saturation], keep: impl Fn(usize) -> bool) -> f64 {
    let rates = sat.iter().enumerate().filter(|(i, _)| keep(*i));
    median(rates.map(|(_, s)| s.updates_per_s()).collect())
}

/// Tallies operations attempted and failed, with a line per failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.ops(&format!("check failed: {what}"), 1, u64::from(!ok));
    }
}

/// What phase 3 leaves behind.
struct Shutdown {
    final_state: FinalState,
    sharded: ShardedCounts,
    /// Start and end of `close()`.
    close: (Instant, Instant),
    /// Start and end of `wal::recover`, on a durable workload.
    recovery: Option<(Instant, Instant)>,
    replayed_frames: u64,
}

/// Phase 3: closes the engine and checks its final state against the
/// reference, the standing result and the log.
fn shut_down_and_verify(
    engine: Engine,
    hub: u32,
    reference: &Reference,
    wal: Option<&TempDir>,
    tally: &mut Tally,
) -> Shutdown {
    let standing_cc = engine.standing("cc");
    let close_start = Instant::now();
    let (final_state, sharded) = engine.close();
    let close = (close_start, Instant::now());
    let view = final_state.view();
    let digest = view_digest(view);
    tally.check(
        "final edge count equals the sequential reference",
        view.num_edges() == reference.num_arcs(),
    );
    tally.check(
        "final edge digest equals the sequential reference",
        digest == reference.digest(),
    );
    let csr = baselines::Csr::from_edges(&reference.arcs());
    let expect = algorithms::bfs(&csr, hub).dist;
    let got = final_state.bfs_dist(hub);
    let common = expect.len().min(got.len());
    tally.check(
        "BFS from the hub equals CSR BFS on the reference edges",
        expect[..common] == got[..common]
            && expect[common..]
                .iter()
                .chain(&got[common..])
                .all(|&d| d == algorithms::UNREACHED),
    );
    if let Some(cc) = standing_cc {
        let FinalState::Graph(g) = &final_state else {
            unreachable!("standing queries run on the unsharded engine")
        };
        tally.check(
            "standing cc equals connected_components on the final graph",
            *cc.read().values == algorithms::connected_components(g.as_ref()),
        );
    }
    if let FinalState::Cut(cut) = &final_state {
        tally.check(
            "final cut is mirror-consistent",
            cut.check_mirror_consistency() == 0,
        );
    }
    let mut recovery = None;
    let mut replayed_frames = 0;
    if let Some(dir) = wal {
        let t = Instant::now();
        let recovered =
            stream::wal::recover::<Edges>(&durability(dir), ChunkParams::default(), false);
        recovery = Some((t, Instant::now()));
        match recovered {
            Ok(r) => {
                tally.check(
                    "recovered graph digest equals the final graph's",
                    view_digest(&r.graph) == digest,
                );
                replayed_frames = r.report.frames_replayed;
            }
            Err(e) => tally.check(&format!("write-ahead log recovers ({e})"), false),
        }
    }
    Shutdown {
        final_state,
        sharded,
        close,
        recovery,
        replayed_frames,
    }
}

/// What the load phases showed, reduced to the numbers both metric
/// lists draw on.
struct Seen {
    ingest: f64,
    visible: Summary,
    /// BFS ops and CC ops of the open-loop phase.
    query: Summary,
    query_cc: Summary,
    /// Mean query op (either kind) during saturation, ms.
    query_sat_mean_ms: f64,
    /// Time inside query ops during the open-loop phase, s.
    query_busy_s: f64,
    late_share: f64,
    /// Share of sends that were late because the generator woke late.
    overslept_share: f64,
    /// Share of the open-loop phase for which the host kept the
    /// generator's CPU from it.
    stolen_share: f64,
    /// Median latency of the last tenth of probes over the first's.
    backlog_ratio: f64,
}

impl Seen {
    fn of(load: &Load) -> Seen {
        // Query latency is the BFS op's on every workload: the
        // closed-loop client's CC ops are load (and busy time), but a
        // median over two kinds of op would sit on the border between
        // them.
        let query_ms = |phase: u8, kind: Option<QueryKind>| -> Vec<f64> {
            let ops = load.queries.iter().filter(|q| q.phase == phase);
            ops.filter(|q| kind.is_none_or(|k| q.timing.kind == k))
                .map(|q| q.timing.total().as_secs_f64() * 1e3)
                .collect()
        };
        let lat = load.open.latencies_ms();
        let tenth = (lat.len() / 10).max(1).min(lat.len());
        let backlog_ratio = ratio(
            Summary::of(lat[lat.len() - tenth..].to_vec()).median,
            Summary::of(lat[..tenth].to_vec()).median,
        );
        Seen {
            ingest: median_rate(&load.sat, |_| true),
            visible: Summary::of(lat),
            query: Summary::of(query_ms(OPEN_LOOP, Some(QueryKind::Bfs))),
            query_cc: Summary::of(query_ms(OPEN_LOOP, Some(QueryKind::Cc))),
            query_sat_mean_ms: Summary::of(query_ms(SATURATION, None)).mean,
            query_busy_s: query_ms(OPEN_LOOP, None).iter().sum::<f64>() / 1e3,
            late_share: ratio(load.open.late as f64, load.open.sent as f64),
            overslept_share: ratio(load.open.overslept as f64, load.open.sent as f64),
            stolen_share: ratio(load.open.stolen_seconds, load.open.seconds),
            backlog_ratio,
        }
    }
}

/// Runs one workload once.
pub fn run(opts: &Options) -> Outcome {
    let w = &opts.workload;
    assert!(opts.seconds > 0.0);
    // Everything but the load generator — this thread, and the engine
    // and pool threads it starts — keeps off the generator's CPU.
    Placement::get().enter_sut();

    // Phase 0, several times over; the last one is used.
    let mut setup_times = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..opts.setups() {
        if let Some(old) = prepared.take() {
            old.engine.close();
        }
        let t = Instant::now();
        prepared = Some(Prepared::new(w, opts.seed, opts.seconds));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let p = prepared.expect("at least one setup");
    #[cfg(test)]
    let p = if opts.corrupt_reference {
        p.with_falsified_reference()
    } else {
        p
    };

    // Phases 1 and 2, on a thread of their own, which moves to the
    // generator's CPU.
    let epoch = Instant::now();
    let load = std::thread::scope(|s| s.spawn(|| drive(&p, w, opts.trace)).join())
        .expect("load generator panicked");
    let seen = Seen::of(&load);

    // Phase 3.
    let mut tally = Tally::default();
    let sat_updates: u64 = load.sat.iter().map(|s| s.updates as u64).sum();
    tally.ops(
        "pushes rejected",
        sat_updates + load.open.sent,
        load.sat.iter().map(|s| s.rejected).sum::<u64>() + load.open.rejected,
    );
    tally.ops(
        "saturation stretches never drained",
        load.sat.len() as u64,
        load.sat.iter().filter(|s| !s.drained).count() as u64,
    );
    tally.ops(
        "probes never visible",
        load.open.probes.len() as u64,
        load.open.never_visible(),
    );
    tally.check(
        &format!(
            "load generator kept a schedule (share of sends it made late {:.4}, of which the \
             host's steal excuses {:.4}, limit {MAX_LATE_SHARE})",
            seen.overslept_share, seen.stolen_share
        ),
        kept_schedule(seen.overslept_share, seen.stolen_share, MAX_LATE_SHARE),
    );
    let Prepared {
        gen,
        hub,
        sat,
        reference,
        engine,
        wal,
        ..
    } = p;
    let down = shut_down_and_verify(engine, hub, &reference, wal.as_ref(), &mut tally);

    let mut e2e = Metrics::new(END_TO_END);
    e2e.set("setup_s", median(setup_times.clone()));
    e2e.set("ingest_updates_per_s", seen.ingest);
    e2e.set("visible_p50_ms", seen.visible.median);
    e2e.set("query_p50_ms", seen.query.median);
    e2e.set(
        "bytes_per_edge",
        down.final_state.memory_bytes() as f64 / down.final_state.view().num_edges() as f64,
    );

    let tail = |s: &Summary| match s.tail {
        Some((q, v)) => format!("p{} = {v:.3} ms", q * 100.0),
        None => "none (fewer than 20 samples)".to_string(),
    };
    let sat_seconds: f64 = load.sat.iter().map(|s| s.seconds).sum();
    let mut notes = vec![
        (
            "setup_s samples",
            format!("{setup_times:.3?} (median reported)"),
        ),
        (
            "saturation",
            format!(
                "{sat_updates} updates in {sat_seconds:.3} s, as {STRETCHES} stretches (median rate reported)"
            ),
        ),
        (
            "visible latency",
            format!(
                "n = {} probes, median {:.3} ms, p99 {:.3} ms, highest supported tail {}",
                seen.visible.n,
                seen.visible.median,
                seen.visible.q99,
                tail(&seen.visible)
            ),
        ),
        (
            "query latency",
            format!(
                "n = {} BFS ops in the open-loop phase, median {:.3} ms, highest supported tail {}; \
                 n = {} CC ops, median {:.3} ms",
                seen.query.n,
                seen.query.median,
                tail(&seen.query),
                seen.query_cc.n,
                seen.query_cc.median
            ),
        ),
        (
            "open loop",
            format!(
                "{} updates offered at {}/s over {:.3} s; late sends {} ({:.4}), of which the \
                 generator overslept {} ({:.4}; the goal of {LATE_SHARE_GOAL} is {}); last \
                 tenth / first tenth median latency {:.3}",
                load.open.sent,
                w.rate,
                load.open.seconds,
                load.open.late,
                seen.late_share,
                load.open.overslept,
                seen.overslept_share,
                if kept_schedule(seen.overslept_share, seen.stolen_share, LATE_SHARE_GOAL) {
                    "met"
                } else {
                    "NOT met"
                },
                seen.backlog_ratio
            ),
        ),
        (
            "host steal",
            format!(
                "{:.4} of all CPU time during the load phases; {:.4} of the generator's CPU \
                 during the open loop",
                load.steal_share, seen.stolen_share
            ),
        ),
        (
            "failed_share",
            format!(
                "{} of {} operations = {:.6}",
                tally.failed,
                tally.attempted,
                tally.failed as f64 / tally.attempted as f64
            ),
        ),
    ];

    let mut per_layer = Vec::new();
    let mut self_times = None;
    if opts.trace {
        let mut trace = Trace::new(epoch);
        record_spans(&mut trace, &load, &down);
        per_layer = layer_metrics(w, &gen, hub, &sat, &load, &seen, &down, &mut trace);
        let path = opts.trace_out.clone().unwrap_or_else(|| {
            crate::target::scratch_root()
                .join("traces")
                .join(format!("{}-seed{}.json", w.name, opts.seed))
        });
        notes.push((
            "chrome trace",
            match write_trace(&path, &trace.chrome_json(w.name)) {
                Ok(()) => format!("{} spans in {}", trace.spans.len(), path.display()),
                Err(e) => format!("not written to {}: {e}", path.display()),
            },
        ));
        self_times = Some(trace.self_time_table());
    }

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        end_to_end: e2e.finish(),
        per_layer,
        notes,
        self_times,
    }
}

fn write_trace(path: &std::path::Path, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

/// Spans of the operations the load phases timed: one `update` per
/// probe (due → visible, with the `stream.push` that carried it), one
/// `query` per query op, and the shutdown.
fn record_spans(trace: &mut Trace, load: &Load, down: &Shutdown) {
    let t0 = load.open.t0;
    for probe in &load.open.probes {
        let Some(visible) = probe.visible else {
            continue;
        };
        let root = trace.root("update", t0 + probe.due, t0 + visible);
        trace.child(
            root,
            "stream.push",
            t0 + probe.push_start,
            t0 + probe.push_end,
        );
    }
    for q in &load.queries {
        let t = &q.timing;
        let root = trace.root("query", t.start, t.start + t.total());
        let mut at = t.start;
        for (name, d) in [
            ("core.acquire", t.acquire),
            ("core.flat_snapshot", t.flat),
            (t.kind.span_name(), t.analytic),
        ] {
            if !d.is_zero() {
                trace.child(root, name, at, at + d);
            }
            at += d;
        }
    }
    // Verification runs between the two children and is nobody's layer.
    let end = down.recovery.map_or(down.close.1, |(_, e)| e);
    let root = trace.root("shutdown", down.close.0, end);
    trace.child(root, "stream.close", down.close.0, down.close.1);
    if let Some((a, b)) = down.recovery {
        trace.child(root, "stream.wal.recover", a, b);
    }
}

/// The per-layer metrics of a traced run: the layers pass and replay
/// on the workload's initial graph (rebuilt: holding on to the
/// engine's own version 0 would have kept the engine from freeing it),
/// then everything the load phases and the engine's counters showed.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    gen: &Generator,
    hub: u32,
    sat: &[Update],
    load: &Load,
    seen: &Seen,
    down: &Shutdown,
    trace: &mut Trace,
) -> Vec<(MetricDef, f64)> {
    let mut m = Metrics::new(PER_LAYER);
    let graph = Graph::from_edges(&gen.initial_arcs(), ChunkParams::default());
    let inputs = layers::Inputs {
        workload: w,
        gen,
        graph,
        hub,
        mean_batch: load.sat_counters.mean_batch().round() as usize,
    };
    let replay_us = layers::measure(&inputs, &mut m, trace);

    let mut push = load.open.push;
    load.sat.iter().for_each(|s| push.add(&s.push));
    m.set(
        "stream.push_ns",
        ratio(push.unblocked_ns as f64, push.unblocked as f64),
    );
    m.set(
        "stream.push_blocked_share",
        ratio(push.blocked as f64, (push.unblocked + push.blocked) as f64),
    );
    let all = &load.all_counters;
    m.set("stream.batches", all.batches as f64);
    m.set("stream.mean_batch", load.sat_counters.mean_batch());
    m.set("stream.apply_mean_us", load.sat_counters.apply_mean_us());
    m.set(
        "stream.coalesce_ratio",
        ratio(all.net_ops as f64, all.updates as f64),
    );
    m.set("stream.replay_us_per_update", replay_us);
    m.set("stream.overhead_ratio", ratio(1e6 / seen.ingest, replay_us));
    m.set(
        "stream.visible_minus_apply_ms",
        seen.visible.median - load.open_counters.apply_mean_us() / 1e3,
    );
    m.set("stream.visible_p99_ms", seen.visible.q99);
    m.set("stream.backlog_ratio", seen.backlog_ratio);
    m.set("stream.query_sat_mean_ms", seen.query_sat_mean_ms);
    m.set(
        "stream.close_ms",
        (down.close.1 - down.close.0).as_secs_f64() * 1e3,
    );
    m.set("stream.late_share", seen.late_share);
    m.set("stream.gen_late_share", seen.overslept_share);

    m.set(
        "stream.wal.fsync_mean_us",
        ratio(all.wal_fsync_ns as f64 / 1e3, all.wal_fsyncs as f64),
    );
    m.set("stream.wal.fsyncs", all.wal_fsyncs as f64);
    m.set(
        "stream.wal.bytes_per_update",
        ratio(all.wal_bytes as f64, all.updates as f64),
    );
    m.set(
        "stream.wal.recover_ms",
        down.recovery
            .map_or(0.0, |(a, b)| (b - a).as_secs_f64() * 1e3),
    );
    m.set("stream.wal.replayed_frames", down.replayed_frames as f64);

    m.set(
        "stream.standing.diff_mean_us",
        ratio(all.standing_diff_ns as f64 / 1e3, all.standing_diffs as f64),
    );
    m.set(
        "stream.standing.repair_mean_us",
        ratio(
            all.standing_repair_ns as f64 / 1e3,
            all.standing_repairs as f64,
        ),
    );
    m.set(
        "stream.standing.full_recompute_share",
        ratio(
            all.standing_full_recomputes as f64,
            all.standing_repairs as f64,
        ),
    );
    m.set("stream.standing.read_ns", load.standing_read_ns);

    let routed = down.sharded.updates_routed as f64;
    m.set("stream.sharded.epochs", down.sharded.epochs as f64);
    m.set(
        "stream.sharded.cross_shard_share",
        ratio(down.sharded.cross_shard_updates as f64, routed),
    );
    m.set(
        "stream.sharded.arcs_per_update",
        ratio(all.updates as f64, routed),
    );
    m.set("stream.sharded.pin_ns", load.pin_ns);
    let skew = match w.engine {
        EngineKind::Unsharded => 0.0,
        EngineKind::Sharded2 => {
            // Arcs per shard, counted with the router's public hash.
            let router = ShardRouter::hash(2);
            let mut arcs = [0u64; 2];
            for u in sat {
                let (a, b) = u.endpoints();
                arcs[router.shard_of(a)] += 1;
                arcs[router.shard_of(b)] += 1;
            }
            let mean = (arcs[0] + arcs[1]) as f64 / 2.0;
            ratio(arcs[0].max(arcs[1]) as f64, mean)
        }
    };
    m.set("stream.sharded.shard_skew", skew);

    m.set("runtime.forks", load.runtime[0] as f64);
    m.set("runtime.steals", load.runtime[1] as f64);
    m.set("runtime.sleeps", load.runtime[2] as f64);

    m.set(
        "bench.trace_overhead_share",
        1.0 - median_rate(&load.sat, |i| i % 2 == 1) / median_rate(&load.sat, |i| i % 2 == 0),
    );
    m.set("bench.steal_share", load.steal_share);
    m.set(
        "bench.query_busy_share",
        ratio(seen.query_busy_s, load.open.seconds),
    );
    m.finish()
}
