//! The command line: `run`, `suite`, `compare`, `repeat`, `manifest`, `layers`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde_json::{json, Map, Value};

use crate::compare::{self, SetSummary};
use crate::gen::{self, Workload};
use crate::harness::{self, RunConfig};
use crate::report::{self, Outcome, END_TO_END};
use crate::span::{self, Tracer};
use crate::{durable, ladder, routed, single};

const USAGE: &str = "\
geobench — end-to-end and per-layer benchmark of the Geomancy placement service

  geobench run --workload W --seed N [--seconds S] [--trace 0|1]
               [--rounds R] [--round-secs T]
  geobench suite [--seed N] [--out FILE] [--record]
  geobench compare BASE.json NEW.json
  geobench repeat [--sets 2] [--runs 5] [--seed N]
  geobench manifest
  geobench layers

workloads: decide-unique decide-suite ingest-durable mixed routed
";

/// Measured seconds per traced round (the traced run must fit 15 s).
const TRACE_ROUND_SECS: f64 = 1.5;

/// The benchmark's own directory: scratch, traces and history live
/// under it, and nothing is written anywhere else.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Scratch directory of this process, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = bench_dir()
            .join("out")
            .join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory under benchmark/out");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `--name value` pairs and bare words.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("record") => flags.push(("record".to_string(), "1".to_string())),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => words.push(a.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

/// Runs one workload: generate inputs, run the rounds (and, traced, the
/// ladder), return what was measured.
pub fn run(cfg: &RunConfig) -> Outcome {
    let cpus = harness::allowed_cpus();
    // The last one: interrupts are served on the first.
    let pinned = cpus.last().copied().filter(|_| cfg.workload.one_core());
    if let Some(cpu) = pinned {
        harness::run_on(&[cpu]);
    }
    let calib_start = harness::calibrate();
    let prepare = Instant::now();
    let stream_secs = harness::WARM_SECS + cfg.round_secs;
    let inputs = gen::generate(cfg.workload, cfg.seed, stream_secs);
    let history = cfg.work_dir.join("history");
    if cfg.workload == Workload::Mixed {
        single::build_history(&inputs, &history);
    }
    let prepare_s = prepare.elapsed().as_secs_f64();

    let tracer = Tracer::new(cfg.trace);
    // Rounds go on until `cfg.rounds` are done and half of that many were
    // calm, or until the run's patience, twice its measured seconds, is
    // out: so a run that starts in a bad minute can outlast it, and one
    // that sits in five of them still ends (a calm run takes 1.0–1.8 times
    // its measured seconds, by workload; rounds of a fixed amount of work,
    // and every cold start is one, take two to three times as long while
    // the box is being robbed). A traced run does its rounds and no more.
    let started = Instant::now();
    let patience = 2.0 * cfg.rounds as f64 * cfg.round_secs;
    let mut rounds: Vec<harness::Round> = Vec::with_capacity(cfg.rounds);
    loop {
        let calm = rounds
            .iter()
            .filter(|r| r.steal_share <= harness::DISTURBED_STEAL)
            .count();
        let enough = rounds.len() >= cfg.rounds && (cfg.trace || 2 * calm >= cfg.rounds);
        let out_of_patience = started.elapsed().as_secs_f64() > patience;
        let half_done = 2 * rounds.len() >= cfg.rounds;
        if enough || (out_of_patience && half_done) {
            break;
        }
        let i = rounds.len();
        let (steal0, total0) = harness::steal_ticks(pinned);
        let mut round = match cfg.workload {
            Workload::IngestDurable => durable::round(cfg, &inputs, i, &tracer),
            Workload::Routed => routed::round(cfg, &inputs, i, &tracer),
            _ => single::round(cfg, &inputs, i, &tracer, &history),
        };
        let (steal1, total1) = harness::steal_ticks(pinned);
        round.steal_share =
            steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
        rounds.push(round);
    }
    let ladder = if cfg.trace {
        ladder::run(&inputs, &cfg.work_dir.join("ladder"), &tracer)
    } else {
        Default::default()
    };
    if cfg.trace {
        let path = bench_dir()
            .join("out")
            .join(format!("trace-{}.json", cfg.workload.name()));
        let text = span::to_json(cfg.workload.name(), cfg.seed, &tracer.spans());
        std::fs::write(&path, text).expect("write the trace file under benchmark/out");
    }
    let calib_end = harness::calibrate();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    harness::run_on(&cpus);
    Outcome {
        workload: cfg.workload,
        seed: cfg.seed,
        digest: inputs.digest,
        trace: cfg.trace,
        rounds,
        prepare_s,
        calib_mops: (calib_start, calib_end),
        ladder,
        nproc,
    }
}

/// The shape of one run: the benchmark's own (`RUN_SECONDS` measured
/// seconds split evenly over the workload's rounds) unless `run` was given
/// the contract's `--seconds`, `--trace 1`, or the smoke test's
/// `--rounds`/`--round-secs`. `suite` and `repeat` take none of those, so
/// a recorded or compared run always has the benchmark's length.
fn run_config(
    workload: Workload,
    seed: u64,
    args: &Args,
    work: &Path,
) -> Result<RunConfig, String> {
    let trace = match args.get::<u8>("trace")? {
        None | Some(0) => false,
        Some(1) => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let rounds = match args.get::<usize>("rounds")? {
        Some(0) => return Err("--rounds must be at least 1".to_string()),
        Some(r) => r,
        None if trace => 1,
        None => workload.rounds(),
    };
    let round_secs = match (args.get::<f64>("round-secs")?, args.get::<f64>("seconds")?) {
        (Some(s), _) => s,
        (None, _) if trace => TRACE_ROUND_SECS,
        (None, Some(total)) => total / rounds as f64,
        (None, None) => report::RUN_SECONDS as f64 / rounds as f64,
    };
    if !(round_secs > 0.0 && round_secs <= 60.0) {
        return Err(format!("a round measures for 0–60 s, not {round_secs}"));
    }
    Ok(RunConfig {
        workload,
        seed,
        rounds,
        round_secs,
        trace,
        work_dir: work.to_path_buf(),
    })
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    args.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "rounds",
        "round-secs",
    ])?;
    let name: String = args.get("workload")?.ok_or("run needs --workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = args.get("seed")?.unwrap_or(1);
    let work = WorkDir::create();
    let outcome = run(&run_config(workload, seed, args, &work.0)?);
    outcome.print();
    Ok(i32::from(!outcome.correct()))
}

fn git_head() -> (String, bool) {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(bench_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let head = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    (head, dirty)
}

fn cmd_suite(args: &Args) -> Result<i32, String> {
    args.only(&["seed", "out", "record"])?;
    let seed = args.get("seed")?.unwrap_or(1);
    let work = WorkDir::create();
    let mut workloads = Map::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let outcome = run(&run_config(w, seed, args, &work.0)?);
        outcome.print();
        all_correct &= outcome.correct();
        workloads.insert(w.name().to_string(), outcome.suite_entry());
    }
    let (commit, dirty) = git_head();
    let suite = json!({
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "workloads": Value::Object(workloads),
    });
    let line = serde_json::to_string(&suite).expect("a JSON value serialises");
    let out: PathBuf = args
        .get::<String>("out")?
        .map_or_else(|| bench_dir().join("out").join("suite.json"), PathBuf::from);
    std::fs::write(&out, format!("{line}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("suite written to {}", out.display());
    if args.get::<u8>("record")?.is_some() {
        use std::io::Write;
        let path = bench_dir().join("history.jsonl");
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("suite appended to {}", path.display());
    }
    Ok(i32::from(!all_correct))
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    args.only(&[])?;
    let [base, new] = args.words.as_slice() else {
        return Err("compare takes two suite files".to_string());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        // A history file holds one suite per line; take the last.
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        serde_json::from_str(line).map_err(|e| format!("{p}: {e}"))
    };
    let rows = compare::compare(&load(base)?, &load(new)?)?;
    Ok(i32::from(compare::print_rows(&rows)))
}

/// One `geobench run` in a process of its own, as the driver runs it;
/// returns the end-to-end values from its summary line.
fn run_in_child(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "run",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    let out = cmd.output().map_err(|e| format!("start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let failed = || format!("{} seed {seed} failed:\n{stdout}", workload.name());
    let summary: Value = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(failed)?;
    let clean = out.status.success()
        && summary.get("correct").and_then(Value::as_bool) == Some(true)
        && summary.get("failed").and_then(Value::as_u64) == Some(0);
    if !clean {
        return Err(failed());
    }
    END_TO_END
        .iter()
        .map(|(name, ..)| {
            summary
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(failed)
        })
        .collect()
}

fn cmd_repeat(args: &Args) -> Result<i32, String> {
    args.only(&["sets", "runs", "seed"])?;
    let sets = args.get::<usize>("sets")?.unwrap_or(2).max(2);
    let runs = args.get::<usize>("runs")?.unwrap_or(5).max(2);
    let seed = args.get::<u64>("seed")?.unwrap_or(1);
    // One record per run: (workload, set, end-to-end values). Sets
    // interleave (A B A B …), so slow drift of the machine lands on both,
    // every run is a process of its own, as the driver's are, and every
    // run has the same seed, so the spread is the machine's alone.
    let mut records: Vec<(Workload, usize, Vec<f64>)> = Vec::new();
    for run_index in 0..runs {
        for set in 0..sets {
            for w in Workload::ALL {
                let e2e = run_in_child(w, seed)?;
                let shown: Vec<String> = END_TO_END
                    .iter()
                    .zip(&e2e)
                    .map(|((name, ..), v)| format!("{name}={v:.4}"))
                    .collect();
                println!("run {run_index} set {set} {} {}", w.name(), shown.join(" "));
                records.push((w, set, e2e));
            }
        }
    }
    let mut agree = true;
    println!(
        "\n{:<15} {:<15} {:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "workload", "metric", "set", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for w in Workload::ALL {
        for (mi, &(metric, _, better, bound)) in END_TO_END.iter().enumerate() {
            let of = |set: Option<usize>| -> Vec<f64> {
                records
                    .iter()
                    .filter(|r| r.0 == w && set.is_none_or(|s| r.1 == s))
                    .map(|r| r.2[mi])
                    .collect()
            };
            let row = |label: &str, v: &[f64]| {
                let s = SetSummary::of(v);
                println!(
                    "{:<15} {:<15} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>6.1}%",
                    w.name(),
                    metric,
                    label,
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.iqr_share() * 100.0
                );
            };
            for set in 0..sets {
                row(&set.to_string(), &of(Some(set)));
            }
            row("all", &of(None));
            for a in 0..sets {
                for b in a + 1..sets {
                    let (worse, ok) =
                        compare::sets_agree(&of(Some(a)), &of(Some(b)), better, bound);
                    agree &= ok;
                    println!(
                        "{:<15} {:<15} sets {a} and {b} differ by {:.1}% of the median, bound {:.0}%: {}",
                        w.name(),
                        metric,
                        worse * 100.0,
                        bound * 100.0,
                        if ok { "agree" } else { "DISAGREE" }
                    );
                }
            }
        }
    }
    Ok(i32::from(!agree))
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "suite" => cmd_suite(&args),
        "compare" => cmd_compare(&args),
        "repeat" => cmd_repeat(&args),
        "manifest" => {
            print!("{}", report::manifest());
            Ok(0)
        }
        "layers" => {
            print!("{}", report::layers());
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("geobench: {e}");
            2
        }
    }
}
