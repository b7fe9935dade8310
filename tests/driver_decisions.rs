//! Per-round decision goldens for the `run` and `stream` drivers.
//!
//! Each drive's JSONL log is reduced to what every round decided: the
//! round's mode, its verdict, the alarm state and transitions, the liar
//! leave-one-out localized, how many switches sit in quarantine, and the
//! unresolved-Byzantine flag. The reduction is compared line by line with
//! a committed golden under `tests/golden/`. The other driver tests check
//! counts and bounds; these catch a decision that moves by one round.
//!
//! `FOCES_BLESS=1 cargo test --test driver_decisions` rewrites each
//! golden that differs from the current code, and fails; rerun without it.

use std::fs;
use std::path::PathBuf;

const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/coverage_fattree4.foces"
);

/// The decision fields of a `run` epoch line.
const RUN: [&str; 9] = [
    "epoch",
    "mode",
    "anomalous",
    "state",
    "alarm_raised",
    "alarm_cleared",
    "localized",
    "liars",
    "byz_unresolved",
];

/// The decision fields of a `stream` round line.
const STREAM: [&str; 11] = [
    "t_ms",
    "region",
    "round",
    "kind",
    "anomalous",
    "alarm",
    "raised",
    "cleared",
    "localized",
    "liars",
    "byz_unresolved",
];

/// The raw value of `key` on a flat JSON line, quotes stripped.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let at = line
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim_matches('"')
}

/// Runs `foces VERB SCENARIO FLAGS --log …` and reduces every round line
/// (those carrying every column) to its decision fields, booleans as 0/1
/// and `null` as `-`. The header names the drive, its exit code and the
/// columns.
fn decisions(name: &str, verb: &str, flags: &str, columns: &[&str]) -> String {
    let log = std::env::temp_dir().join(format!(
        "foces_decisions_{}_{name}.jsonl",
        std::process::id()
    ));
    let mut argv = vec![verb.to_string(), SCENARIO.to_string()];
    argv.extend(flags.split_whitespace().map(String::from));
    argv.extend(["--log".to_string(), log.display().to_string()]);
    let out = foces_cli::commands::dispatch(&argv)
        .unwrap_or_else(|e| panic!("foces {verb} {flags}: {e}"));
    let text = fs::read_to_string(&log).expect("the drive writes its log");
    fs::remove_file(&log).ok();
    let mut s = format!(
        "# foces {verb} {flags}\n# exit {}\n# {}\n",
        out.exit_code,
        columns.join(" ")
    );
    let tags: Vec<String> = columns.iter().map(|c| format!("\"{c}\":")).collect();
    for line in text
        .lines()
        .filter(|l| tags.iter().all(|t| l.contains(t.as_str())))
    {
        let row: Vec<&str> = columns
            .iter()
            .map(|c| match field(line, c) {
                "true" => "1",
                "false" => "0",
                "null" => "-",
                v => v,
            })
            .collect();
        s.push_str(&row.join(" "));
        s.push('\n');
    }
    s
}

/// Compares the drive's decisions with `tests/golden/decisions_NAME.txt`.
/// Under `FOCES_BLESS=1` a mismatch rewrites that file, and still fails.
fn check(name: &str, verb: &str, flags: &str, columns: &[&str]) {
    let got = decisions(name, verb, flags, columns);
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        &format!("decisions_{name}.txt"),
    ]
    .iter()
    .collect();
    let want = fs::read_to_string(&path).unwrap_or_default();
    if got == want {
        return;
    }
    if std::env::var_os("FOCES_BLESS").is_some() {
        fs::write(&path, &got).expect("write golden");
        panic!("blessed {}; rerun without FOCES_BLESS", path.display());
    }
    let diverge = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or(got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: decisions diverge from {} at line {}\n  got:  {:?}\n  want: {:?}",
        path.display(),
        diverge + 1,
        got.lines().nth(diverge),
        want.lines().nth(diverge),
    );
}

/// The naive `run` liar of CI's same-seed Byzantine drills: localized,
/// quarantined, released after it confesses.
#[test]
fn run_naive_liar_decisions() {
    check(
        "run_liar",
        "run",
        "--epochs 30 --liars 1 --fake-at 5 --confess-at 18 --seed 3",
        &RUN,
    );
}

/// The naive `stream` liar of the same drills.
#[test]
fn stream_naive_liar_decisions() {
    check(
        "stream_liar",
        "stream",
        "--duration-ms 20000 --liars 1 --fake-at 3000 --confess-at 12000 --seed 3",
        &STREAM,
    );
}

/// Switch 0 offline over epochs 5-12: degraded rounds.
#[test]
fn run_degraded_decisions() {
    check(
        "run_degraded",
        "run",
        "--epochs 30 --offline 0 --offline-from 5 --offline-to 12 --seed 3",
        &RUN,
    );
}

/// A reroute every 3 epochs: reconciled rounds and FCM rebuilds.
#[test]
fn run_churn_decisions() {
    check(
        "run_churn",
        "run",
        "--epochs 30 --churn 3 --churn-seed 5 --seed 3",
        &RUN,
    );
}

/// A scaling liar whose fake window spans a churn rebuild.
#[test]
fn stream_churn_liar_decisions() {
    check(
        "stream_churn_liar",
        "stream",
        "--duration-ms 20000 --liars 1 --fake-strategy scale --fake-at 3000 \
         --churn-at 6000 --confess-at 12000 --seed 3",
        &STREAM,
    );
}
