//! The repo benchmark: open-loop visibility latency, saturation ingest
//! and live-query latency over four workloads, with an outside-in
//! layer trace. See `README.md` beside this package.
//!
//! ```text
//! aspen-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--quick] [--json <file>] [--trace-out <file>]
//! aspen-benchmark suite --out <file> [--runs <n>] [--seed <n>] [--seconds <s>] [--quick]
//! aspen-benchmark compare <base.json> <new.json>
//! aspen-benchmark selfcheck [--runs <n>] [--seed <n>] [--seconds <s>] [--quick]
//! aspen-benchmark list
//! ```

mod compare;
mod gen;
mod layers;
mod load;
mod place;
mod report;
mod run;
mod spec;
mod stats;
mod target;
mod trace;

use obs::Json;
use run::Options;
use spec::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments as `--flag value` pairs, bare `--flag`s and
/// positionals.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--quick"];

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                out.positional.push(a);
            } else if SWITCHES.contains(&a.as_str()) {
                out.flags.push((a, None));
            } else {
                let value = args.next().ok_or(format!("{a} needs a value"))?;
                out.flags.push((a, Some(value)));
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option {f}")),
            None => Ok(()),
        }
    }
}

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 10.0;

fn workload(name: &str, quick: bool) -> Result<Workload, String> {
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {names:?}")
    })?;
    Ok(if quick { w.quick() } else { w })
}

fn options(args: &Args, w: Workload) -> Result<Options, String> {
    let seconds: f64 = args.number("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: outside (0, 600]"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    Ok(Options {
        workload: w,
        seed: args.number("--seed", DEFAULT_SEED)?,
        seconds,
        trace,
        trace_out: args.value("--trace-out").map(PathBuf::from),
        #[cfg(test)]
        corrupt_reference: false,
    })
}

/// Refuses to measure a build that carries the tracing tax.
fn guard() -> Result<(), String> {
    if report::obs_trace_compiled() {
        return Err(
            "aspen-stream was compiled with `obs-trace`: end-to-end metrics of such a build \
             are not comparable; rebuild the benchmark without that feature"
                .to_string(),
        );
    }
    Ok(())
}

fn write_json(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))
}

/// The driver's entry: one run of one workload.
fn cmd_run(args: &Args) -> Result<bool, String> {
    args.known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--quick",
        "--json",
        "--trace-out",
    ])?;
    guard()?;
    let name = args
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let opts = options(args, workload(name, args.has("--quick"))?)?;
    let outcome = run::run(&opts);
    report::print(&opts, &outcome);
    if let Some(path) = args.value("--json") {
        let runs = vec![report::run_json(&opts, &outcome)];
        let doc = report::result_file(opts.seconds, vec![(opts.workload, runs)]);
        write_json(path, &doc)?;
    }
    println!("{}", report::result_line(&opts, &outcome).render());
    Ok(outcome.correct())
}

/// One untraced run in a process of its own, exactly as the driver
/// starts it (a second run in one process finds warm caches and a
/// grown heap, and measures something else). Returns the run as a
/// result file keeps it, and whether it was correct.
fn run_in_child(opts: &Options, quick: bool, label: &str) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", opts.workload.name, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        eprintln!("[{label}] {line}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let line = obs::json::parse(last).map_err(|e| {
        format!(
            "a run of {} printed no result ({e}): {}",
            opts.workload.name,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let field = |k: &str| line.get(k).cloned().unwrap_or(Json::Null);
    let correct = field("correct") == Json::Bool(true) && out.status.success();
    let run = Json::obj([
        ("seed", Json::U64(opts.seed)),
        ("traced", Json::Bool(false)),
        ("correct", Json::Bool(correct)),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("end_to_end", field("metrics")),
    ]);
    Ok((run, correct))
}

/// Runs every workload `runs` times untraced, one process per run, and
/// collects a result file; `Ok(false)` when any run failed an
/// operation or a check.
fn suite(args: &Args, label: &str) -> Result<(Json, bool), String> {
    guard()?;
    let runs: u64 = args.number("--runs", 5)?;
    let quick = args.has("--quick");
    let mut all_correct = true;
    let mut seconds = DEFAULT_SECONDS;
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let opts = options(args, workload(w.name, quick)?)?;
        seconds = opts.seconds;
        let mut results = Vec::new();
        for i in 0..runs {
            let (run, correct) = run_in_child(&opts, quick, label)?;
            let metrics = run.get("end_to_end").map(Json::render).unwrap_or_default();
            eprintln!("[{label}] {} run {}/{runs}: {metrics}", w.name, i + 1);
            all_correct &= correct;
            results.push(run);
        }
        workloads.push((opts.workload, results));
    }
    Ok((report::result_file(seconds, workloads), all_correct))
}

fn cmd_suite(args: &Args) -> Result<bool, String> {
    args.known(&["--out", "--runs", "--seed", "--seconds", "--quick"])?;
    let out = args.value("--out").ok_or("suite needs --out <file>")?;
    let (doc, correct) = suite(args, "suite")?;
    write_json(out, &doc)?;
    println!("wrote {out}");
    Ok(correct)
}

/// The bounds every comparison is judged by: the repository's own.
fn bounds() -> Result<Vec<compare::Bounded>, String> {
    compare::read_bounds(&report::repo_root().join("BENCHMARK.json"))
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.known(&[])?;
    let [_, base, new] = args.positional.as_slice() else {
        return Err("compare needs <base.json> <new.json>".to_string());
    };
    let read = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        obs::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, within) = compare::compare(&read(base)?, &read(new)?, &bounds()?);
    print!("{table}");
    Ok(within)
}

/// Runs the suite twice on this build; the two must agree within the
/// bounds on every workload × end-to-end metric.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    args.known(&["--runs", "--seed", "--seconds", "--quick"])?;
    let bounds = bounds()?;
    let (first, ok1) = suite(args, "selfcheck 1/2")?;
    let (second, ok2) = suite(args, "selfcheck 2/2")?;
    let (table, within) = compare::compare(&first, &second, &bounds);
    print!("{table}");
    println!(
        "selfcheck: {}",
        if within && ok1 && ok2 {
            "the two sets agree within every bound"
        } else {
            "DISAGREEMENT (or failed operations) — see the rows above"
        }
    );
    Ok(within && ok1 && ok2)
}

fn cmd_list() {
    for w in WORKLOADS {
        println!(
            "{:<18} n_sat {:>7}  rate {:>6}/s  {}",
            w.name, w.n_sat, w.rate, w.why
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aspen-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        None => cmd_run(&args),
        Some("suite") => cmd_suite(&args),
        Some("compare") => cmd_compare(&args),
        Some("selfcheck") => cmd_selfcheck(&args),
        Some("list") => {
            cmd_list();
            Ok(true)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    };
    ExitCode::from(exit_code(result))
}

/// 0 only when every operation and every check passed; 1 when a run
/// measured but something failed; 2 when it could not run at all.
fn exit_code(result: Result<bool, String>) -> u8 {
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("aspen-benchmark: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str, trace: bool) -> Options {
        Options {
            workload: Workload::by_name(name).unwrap().quick(),
            seed: 7,
            seconds: 0.5,
            trace,
            trace_out: None,
            corrupt_reference: false,
        }
    }

    /// Every workload, every phase including verification, untraced
    /// and traced, at the smoke scale.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let opts = quick(w.name, trace);
                let outcome = run::run(&opts);
                assert!(
                    outcome.failures.is_empty(),
                    "{} (trace {trace}): {:?}",
                    w.name,
                    outcome.failures
                );
                assert!(outcome.attempted > opts.workload.n_sat as u64);
                assert_eq!(outcome.end_to_end.len(), spec::END_TO_END.len());
                assert!(outcome.end_to_end.iter().all(|(_, v)| *v > 0.0));
                assert_eq!(outcome.per_layer.is_empty(), !trace);
                let line = report::result_line(&opts, &outcome).render();
                let doc = obs::json::parse(&line).unwrap();
                assert_eq!(doc.get("failed"), Some(&Json::U64(outcome.failed)));
                if trace {
                    let get = |n: &str| {
                        let found = outcome.per_layer.iter().find(|(d, _)| d.name == n);
                        found.unwrap_or_else(|| panic!("no {n}")).1
                    };
                    // Layers that only one workload has are silent
                    // everywhere else.
                    assert_eq!(get("stream.wal.fsyncs") > 0.0, w.durable, "{}", w.name);
                    assert_eq!(
                        get("stream.standing.repair_mean_us") > 0.0,
                        w.standing,
                        "{}",
                        w.name
                    );
                    assert_eq!(
                        get("stream.sharded.epochs") > 0.0,
                        w.engine == spec::EngineKind::Sharded2,
                        "{}",
                        w.name
                    );
                    assert!(outcome
                        .self_times
                        .as_ref()
                        .unwrap()
                        .contains("replay.batch"));
                }
            }
        }
    }

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let mut opts = quick("steady-ingest", false);
        opts.corrupt_reference = true;
        let outcome = run::run(&opts);
        assert!(!outcome.correct());
        assert!(outcome.failed_share() > 0.0);
        assert!(outcome.failures.iter().any(|f| f.contains("digest")));
        let line = report::result_line(&opts, &outcome).render();
        assert!(line.contains("\"correct\":false"));
        // What `main` makes of such a run, and of a clean one.
        assert_eq!(exit_code(Ok(outcome.correct())), 1);
        assert_eq!(exit_code(Ok(true)), 0);
    }

    #[test]
    fn same_seed_same_final_graph() {
        // bytes_per_edge is a function of the final graph alone, and
        // the final graph of the inputs alone: it repeats exactly.
        let bytes = |seed| {
            let mut opts = quick("durable-standing", false);
            opts.seed = seed;
            let outcome = run::run(&opts);
            let found = outcome
                .end_to_end
                .iter()
                .find(|(d, _)| d.name == "bytes_per_edge");
            found.unwrap().1
        };
        assert_eq!(bytes(3), bytes(3));
        assert_ne!(bytes(3), bytes(4));
    }

    #[test]
    fn arguments_parse_the_drivers_command_line() {
        let line = "--workload query-heavy --seed 9 --seconds 2.5 --trace 1 --quick";
        let args = Args::parse(line.split(' ').map(String::from)).unwrap();
        let opts = options(&args, workload("query-heavy", true).unwrap()).unwrap();
        assert_eq!((opts.seed, opts.seconds, opts.trace), (9, 2.5, true));
        assert_eq!(opts.setups(), 1);
        assert!(workload("nope", false).is_err());
        assert!(Args::parse(["--seed".to_string()].into_iter()).is_err());
        let bad = Args::parse("--trace 2".split(' ').map(String::from)).unwrap();
        assert!(options(&bad, WORKLOADS[0]).is_err());
        assert!(!report::obs_trace_compiled());
    }
}
