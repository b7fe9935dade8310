//! `foces-benchmark`: the one command every performance claim in this
//! repository is measured with.
//!
//! ```text
//! foces-benchmark --workload <lockstep|churn|sharded|stream|all> --seed N
//!                 [--seconds S] [--trace 0|1] [--spans FILE] [--smoke]
//! ```
//!
//! Each workload runs the seeded load through one detection driver's
//! public entry point, times only the driver calls, checks every verdict
//! against ground truth, and prints one JSON line per metric followed by
//! a result line `{"correct","attempted","failed","metrics"}`. The process
//! exits 1 when any check fails. `--trace 1` replays each round through
//! the public call of every layer, writes the spans, and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

mod clock;
mod cluster;
mod inputs;
mod report;
mod run;
mod speed;
mod stream;
mod trace;

use clock::Timings;
use report::{Report, END_TO_END, PER_LAYER};
use speed::HostSpeed;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: &[&str] = &["lockstep", "churn", "sharded", "stream"];

/// Parsed command line.
pub struct Opts {
    workload: String,
    pub seed: u64,
    /// Measurement budget; every workload finishes its current cycle or
    /// episode once it is spent.
    pub seconds: f64,
    pub trace: bool,
    spans: Option<PathBuf>,
    /// FatTree(4) and a few rounds per workload, for tests.
    pub smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: foces-benchmark --workload <{}|all> --seed N [--seconds S] [--trace 0|1] \
         [--spans FILE] [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        spans: None,
        smoke: false,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                opts.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&args);
    }
    if !clock::pin_to_this_cpu() {
        eprintln!("warning: cannot pin the benchmark to one CPU; timings will be noisier");
    }
    let report = match opts.workload.as_str() {
        "lockstep" => run::lockstep(&opts),
        "churn" => run::churn(&opts),
        "sharded" => cluster::sharded(&opts),
        _ => stream::stream(&opts),
    };
    let keys = if opts.trace { PER_LAYER } else { END_TO_END };
    if report.finish(keys) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one child process per workload, so each
/// `peak_rss_mb` (the process's `VmHWM`) belongs to one workload alone.
/// Children run one after another and inherit stdout.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_string(), w.to_string()]);
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics every workload reports, plus its failed-round
/// rate and the digest of its first cycle or episode's decisions.
/// `rounds` holds the time (ms) of every timed round, `setup` of every
/// set-up. The metrics are CPU times scaled to the baseline host speed
/// (see `clock.rs` and `speed.rs`); the CPU and wall times they come from
/// are printed as `cpu.*` and `wall.*` lines.
pub fn end_to_end(
    report: &mut Report,
    rounds: &Timings,
    setup: &Timings,
    keys: &[String],
    speed: &HostSpeed,
) {
    let n = rounds.len();
    let scaled = (
        speed.scale(rounds, speed::ROUND_SHARE),
        speed.scale(setup, speed::SETUP_SHARE),
    );
    let series = [
        ("", &scaled.0, &scaled.1),
        ("cpu.", &rounds.cpu, &setup.cpu),
        ("wall.", &rounds.wall, &setup.wall),
    ];
    for (prefix, r, s) in series {
        report.metric(&format!("{prefix}round_ms_p50"), r.p50(), "ms", n);
        report.metric(
            &format!("{prefix}round_ms_p99"),
            r.percentile(99.0),
            "ms",
            n,
        );
        let rate = n as f64 / (r.sum() / 1e3);
        report.metric(&format!("{prefix}rounds_per_s"), rate, "1/s", n);
        report.metric(&format!("{prefix}setup_s"), s.p50() / 1e3, "s", s.len());
    }
    speed.report(report);
    let rss_mb = foces_runtime::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    report.metric("peak_rss_mb", rss_mb, "MB", 1);
    let failed_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric(
        "failed_round_rate",
        failed_rate,
        "ratio",
        report.attempted as usize,
    );
    report.metric("sequence_digest", digest(keys), "hash", keys.len());
}

/// FNV-1a over a round-decision sequence, folded into the 52 bits a JSON
/// number carries exactly. Equal seeds must give equal digests, traced or
/// not.
fn digest(keys: &[String]) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in keys {
        for b in k.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h & ((1 << 52) - 1)) as f64
}

/// The span-derived per-layer metrics every workload reports: the
/// per-round collection and warm-solve cost, the setup layers, residual
/// attribution, and the trace's own accounting.
pub fn span_metrics(report: &mut Report, tracer: &Tracer) {
    tracer.summarize(report);
    let per_round = |name| tracer.per_round(name);
    let once = |name| tracer.layer(name);
    let collect = per_round("collect");
    report.metric("collect.ms_p50", collect.p50(), "ms", collect.len());
    let warm = per_round("solve.warm");
    report.metric("solve.warm_ms_p50", warm.p50(), "ms", warm.len());
    let suspicion = per_round("suspicion");
    report.metric("suspicion.ms_p50", suspicion.p50(), "ms", suspicion.len());
    let cold = per_round("solve.cold");
    report.metric("solve.cold_ms", cold.p50(), "ms", cold.len());
    let build = once("fcm.build");
    report.metric("fcm.build_ms", build.p50(), "ms", build.len());
    let coverage = once("coverage");
    report.metric("coverage.ms", coverage.p50(), "ms", coverage.len());
}

/// Writes the span file: `--spans FILE`, or `out/spans-<workload>-<seed>.jsonl`
/// next to this package's manifest.
pub fn write_spans(opts: &Opts, workload: &str, tracer: &Tracer, report: &mut Report) {
    let path = opts.spans.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{workload}-{}.jsonl", opts.seed))
    });
    let written = tracer.write(&path);
    report.check(written.is_ok(), || {
        format!(
            "cannot write spans to {}: {:?}",
            path.display(),
            written.err()
        )
    });
}
