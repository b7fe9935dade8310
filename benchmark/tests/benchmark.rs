//! Smoke test: runs every workload at FatTree(4) scale, traced and
//! untraced, and checks the output against `BENCHMARK.json` at the
//! repository root.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// benchmark's own output lines).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let v = value(bytes, &mut at);
        skip_ws(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, at) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, at);
                assert_eq!(b[*at], b':');
                *at += 1;
                let v = value(b, at);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut a = Vec::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(a);
                }
                a.push(value(b, at));
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'"' => {
            *at += 1;
            let mut s = String::new();
            while b[*at] != b'"' {
                if b[*at] == b'\\' {
                    *at += 1;
                    s.push(match b[*at] {
                        b'n' => '\n',
                        b't' => '\t',
                        c => c as char,
                    });
                } else {
                    let len = std::str::from_utf8(&b[*at..])
                        .ok()
                        .and_then(|r| r.chars().next())
                        .map_or(1, char::len_utf8);
                    s.push_str(std::str::from_utf8(&b[*at..*at + len]).expect("utf-8"));
                    *at += len - 1;
                }
                *at += 1;
            }
            *at += 1;
            Json::Str(s)
        }
        b't' => {
            *at += 4;
            Json::Bool(true)
        }
        b'f' => {
            *at += 5;
            Json::Bool(false)
        }
        b'n' => {
            *at += 4;
            Json::Null
        }
        _ => {
            let start = *at;
            while *at < b.len() && b"+-.eE0123456789".contains(&b[*at]) {
                *at += 1;
            }
            let text = std::str::from_utf8(&b[start..*at]).expect("ascii");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn names(section: &Json) -> Vec<String> {
    section
        .arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

/// Runs one smoke workload; returns the metric lines by name and the
/// final result line.
fn run(workload: &str, trace: bool, spans: &PathBuf) -> (BTreeMap<String, Json>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_foces-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(spans)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<Json> = stdout.lines().map(Json::parse).collect();
    let result = lines.pop().expect("a result line");
    let metrics = lines
        .into_iter()
        .map(|l| {
            assert_eq!(l.get("workload").str(), workload);
            (l.get("metric").str().to_string(), l)
        })
        .collect();
    (metrics, result)
}

#[test]
fn benchmark_json_is_well_formed() {
    let b = benchmark_json();
    let workloads = names(b.get("workloads"));
    let e2e = names(b.get("end_to_end"));
    let layers = names(b.get("per_layer"));
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut all: Vec<&String> = workloads.iter().chain(&e2e).chain(&layers).collect();
    for n in &all {
        assert!(valid_name(n), "bad name {n}");
    }
    all.sort();
    let before = all.len();
    all.dedup();
    assert_eq!(before, all.len(), "names are used once");
    assert!(e2e.contains(&"setup_s".to_string()));
    for m in b.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound is a number")
        };
        assert!((0.0..=0.25).contains(bound));
    }
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let b = benchmark_json();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for workload in names(b.get("workloads")) {
        let spans = dir.join(format!("spans-{workload}.jsonl"));
        let (plain_lines, plain) = run(&workload, false, &spans);
        let (traced_lines, traced) = run(&workload, true, &spans);
        for (result, section) in [(&plain, "end_to_end"), (&traced, "per_layer")] {
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed"), &Json::Num(0.0));
            let emitted: Vec<&String> = result.get("metrics").obj().keys().collect();
            let mut listed = names(b.get(section));
            listed.sort();
            assert_eq!(
                emitted,
                listed.iter().collect::<Vec<_>>(),
                "{workload} {section}"
            );
            for m in b.get(section).arr() {
                let got = result.get("metrics").get(m.get("name").str());
                assert_eq!(got.get("unit"), m.get("unit"), "{workload}");
            }
        }
        // The replay never touches the driver: same seed, same decisions.
        assert_eq!(
            plain_lines["sequence_digest"].get("value"),
            traced_lines["sequence_digest"].get("value"),
            "{workload}: traced and untraced runs diverged"
        );
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote spans");
        assert!(!text.is_empty());
        for line in text.lines() {
            let span = Json::parse(line);
            for key in ["round", "name", "start_us", "end_us", "parent"] {
                span.get(key);
            }
        }
    }
}
