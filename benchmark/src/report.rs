//! What a run prints and what a result file holds: every metric by
//! name with its unit, the last line the driver parses, and the
//! environment stamp.

use crate::place::Placement;
use crate::run::{Options, Outcome};
use crate::spec::{MetricDef, Workload};
use obs::Json;
use std::path::{Path, PathBuf};

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in the repository root")
        .to_path_buf()
}

/// Whether `aspen-obs` — and with it `aspen-stream`, whose `obs-trace`
/// feature switches it on — was compiled with span recording: only
/// then is a `Span` guard more than a unit type. End-to-end metrics
/// of such a build carry the tracing tax and are refused.
pub fn obs_trace_compiled() -> bool {
    std::mem::size_of::<obs::trace::Span>() > 0
}

/// The commit the working tree is at, read from `.git` without
/// starting a process; `unknown` outside a git checkout.
fn git_sha() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how a result was measured. Taken on the CPUs of the
/// system under test, because the worker pool sizes itself by the CPUs
/// of the thread that first uses it — in a run that is the set-up, in
/// `suite` (whose runs are child processes) it is this.
pub fn env_stamp() -> Json {
    let place = Placement::get();
    std::thread::scope(|s| {
        s.spawn(|| {
            place.enter_sut();
            stamp(place)
        })
        .join()
        .expect("stamping the environment panicked")
    })
}

fn stamp(place: &Placement) -> Json {
    Json::obj([
        ("git_sha", Json::Str(git_sha())),
        ("nproc", Json::U64(place.cpus() as u64)),
        ("placement", Json::Str(place.describe())),
        (
            "aspen_threads",
            std::env::var("ASPEN_THREADS").map_or(Json::Null, Json::Str),
        ),
        (
            "pool_threads",
            Json::U64(rayon::current_num_threads() as u64),
        ),
        ("rustc", Json::Str(rustc_version())),
        (
            "default_codec",
            Json::Str(std::any::type_name::<ctree::DefaultCodec>().to_string()),
        ),
        ("obs_trace_compiled", Json::Bool(obs_trace_compiled())),
        (
            "batch_policy",
            Json::Str(format!("{:?}", stream::BatchPolicy::default())),
        ),
    ])
}

/// The frozen load of a workload, for the result file.
pub fn frozen(w: &Workload, seconds: f64) -> Json {
    Json::obj([
        ("n_sat", Json::U64(w.n_sat as u64)),
        ("rate_per_s", Json::U64(w.rate)),
        ("seconds", Json::F64(seconds)),
        ("n_open", Json::U64(w.n_open(seconds) as u64)),
        ("scale", Json::U64(u64::from(w.scale))),
        ("avg_degree", Json::U64(u64::from(w.avg_degree))),
    ])
}

fn metrics_json(metrics: &[(MetricDef, f64)]) -> Json {
    Json::obj(metrics.iter().map(|(d, v)| {
        (
            d.name,
            Json::obj([("value", Json::F64(*v)), ("unit", Json::Str(d.unit.into()))]),
        )
    }))
}

/// The object the driver reads from the last line of standard output:
/// the end-to-end metrics of an untraced run, the per-layer metrics of
/// a traced one.
pub fn result_line(opts: &Options, outcome: &Outcome) -> Json {
    let metrics = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// One run as a result file keeps it.
pub fn run_json(opts: &Options, outcome: &Outcome) -> Json {
    Json::obj([
        ("seed", Json::U64(opts.seed)),
        ("traced", Json::Bool(opts.trace)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("end_to_end", metrics_json(&outcome.end_to_end)),
        ("per_layer", metrics_json(&outcome.per_layer)),
    ])
}

/// A result file: the stamp, and per workload its frozen load and runs.
pub fn result_file(seconds: f64, workloads: Vec<(Workload, Vec<Json>)>) -> Json {
    Json::obj([
        ("schema", Json::Str("aspen-benchmark/v1".into())),
        ("env", env_stamp()),
        (
            "workloads",
            Json::obj(workloads.into_iter().map(|(w, runs)| {
                (
                    w.name,
                    Json::obj([("frozen", frozen(&w, seconds)), ("runs", Json::Arr(runs))]),
                )
            })),
        ),
    ])
}

/// Prints every metric of the run by name, with its unit.
pub fn print(opts: &Options, outcome: &Outcome) {
    let w = &opts.workload;
    println!(
        "workload {} | seed {} | open loop {} s at {}/s | saturation {} updates | {}",
        w.name,
        opts.seed,
        opts.seconds,
        w.rate,
        w.n_sat,
        if opts.trace { "TRACED" } else { "untraced" }
    );
    println!("why: {}", w.why);
    println!("env: {}", env_stamp().render());
    let table = |title: &str, metrics: &[(MetricDef, f64)]| {
        println!("\n{title}");
        for (d, v) in metrics {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "  {:<42} {:>16.4} {:<9} ({better} is better)",
                d.name, v, d.unit
            );
        }
    };
    let title = if opts.trace {
        "end-to-end metrics, as seen under tracing (not for comparison)"
    } else {
        "end-to-end metrics"
    };
    table(title, &outcome.end_to_end);
    println!(
        "  {:<42} {:>16.6} {:<9} (may not rise)",
        "failed_share",
        outcome.failed_share(),
        "fraction"
    );
    if opts.trace {
        table("per-layer metrics", &outcome.per_layer);
    }
    println!();
    for (label, text) in &outcome.notes {
        println!("{label}: {text}");
    }
    if let Some(t) = &outcome.self_times {
        println!("\nper-layer self time (span minus covered children)\n{t}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
}
