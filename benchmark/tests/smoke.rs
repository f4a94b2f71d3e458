//! `--smoke`: the whole benchmark — every workload, tracing off and on —
//! on a tiny fixture, through `run.sh` exactly as the driver calls it, plus
//! the drift gate: what the benchmark prints and what `BENCHMARK.json`
//! declares must be the same names, units and counts, in both directions.

use neats_benchmark::metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

/// Both tests drive a pinned server and generator: one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

// ---------------------------------------------------------------------
// Just enough JSON to read BENCHMARK.json and a result line.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    if !fields.is_empty() {
                        self.eat(b',');
                    }
                    let Json::Str(key) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    fields.push((key, self.value()));
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    if !items.is_empty() {
                        self.eat(b',');
                    }
                    items.push(self.value());
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => {
                            self.i += 1;
                            return Json::Str(out);
                        }
                        b'\\' => {
                            out.push(self.s[self.i + 1] as char);
                            self.i += 2;
                        }
                        _ => {
                            let rest = std::str::from_utf8(&self.s[self.i..]).unwrap();
                            let c = rest.chars().next().unwrap();
                            out.push(c);
                            self.i += c.len_utf8();
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes after the JSON value");
    v
}

// ---------------------------------------------------------------------

struct Run {
    status: Option<i32>,
    /// Result object per workload, in print order.
    results: Vec<(String, Json)>,
}

fn run(args: &[&str]) -> Run {
    let out = Command::new("bash")
        .arg(root().join("benchmark/run.sh"))
        .args(args)
        .output()
        .expect("bash benchmark/run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut results = Vec::new();
    let mut workload = String::new();
    for line in stdout.lines() {
        if let Some(name) = line.strip_prefix("workload ") {
            workload = name.to_string();
        } else if line.starts_with('{') {
            results.push((workload.clone(), parse(line)));
        }
    }
    assert!(
        !results.is_empty(),
        "no result line; stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The driver reads the last line of standard output.
    assert!(stdout
        .trim_end()
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\""));
    Run {
        status: out.status.code(),
        results,
    }
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Printed metrics against one declared list: same names, same units,
/// nothing missing, nothing extra.
fn assert_no_drift(what: &str, run: &Run, declared: &[Json], workloads: &[&str]) {
    let want: BTreeMap<&str, &str> = declared
        .iter()
        .map(|m| (m.get("name").str(), m.get("unit").str()))
        .collect();
    assert_eq!(
        want.len(),
        declared.len(),
        "{what}: a declared name is used twice"
    );
    let printed: Vec<&str> = run.results.iter().map(|(w, _)| w.as_str()).collect();
    assert_eq!(printed, workloads, "{what}: workloads printed vs declared");
    for (workload, result) in &run.results {
        let Json::Obj(fields) = result else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            result.get("correct"),
            &Json::Bool(true),
            "{what} @ {workload}"
        );
        assert_eq!(result.get("failed").num(), 0.0, "{what} @ {workload}");
        assert!(result.get("attempted").num() >= 1.0);
        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        let got: BTreeMap<&str, &str> = metrics
            .iter()
            .map(|(name, m)| (name.as_str(), m.get("unit").str()))
            .collect();
        assert_eq!(got, want, "{what} @ {workload}: printed vs BENCHMARK.json");
        for (name, m) in metrics {
            assert!(name_ok(name), "metric name {name:?}");
            assert!(m.get("value").num().is_finite());
        }
    }
}

#[test]
fn smoke_runs_every_workload_and_matches_benchmark_json() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let decl = parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap());
    let workloads: Vec<&str> = decl
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    for w in &workloads {
        assert!(name_ok(w), "workload name {w:?}");
    }

    // The lists compiled into the benchmark are the declared ones …
    let in_code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let in_json = |key: &str| -> Vec<(String, String)> {
        decl.get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(in_code(&END_TO_END), in_json("end_to_end"));
    assert_eq!(in_code(&PER_LAYER), in_json("per_layer"));

    // … and so is what a run actually prints, tracing off and on.
    let plain = run(&["--smoke", "--seed", "7"]);
    assert_eq!(plain.status, Some(0));
    assert_no_drift(
        "end_to_end",
        &plain,
        decl.get("end_to_end").arr(),
        &workloads,
    );
    for (workload, result) in &plain.results {
        for m in decl.get("end_to_end").arr() {
            let v = result
                .get("metrics")
                .get(m.get("name").str())
                .get("value")
                .num();
            assert!(
                v > 0.0,
                "{} @ {workload} is {v}: end-to-end metrics are never 0",
                m.get("name").str()
            );
        }
    }
    let traced = run(&["--smoke", "--seed", "7", "--traced"]);
    assert_eq!(traced.status, Some(0));
    assert_no_drift(
        "per_layer",
        &traced,
        decl.get("per_layer").arr(),
        &workloads,
    );
    for w in &workloads {
        assert!(
            root()
                .join(format!("benchmark/out/trace-{w}.json"))
                .is_file(),
            "the traced pass leaves trace-{w}.json"
        );
    }
}

#[test]
fn self_test_makes_the_run_fail() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // One oracle value and one acknowledged point are corrupted: the run
    // must see both and say so with its exit code.
    let run = run(&[
        "--smoke",
        "--seed",
        "7",
        "--workload",
        "ingest_mixed",
        "--self-test",
    ]);
    assert_ne!(run.status, Some(0));
    let (_, result) = &run.results[0];
    assert_eq!(result.get("correct"), &Json::Bool(false));
    assert!(result.get("failed").num() >= 2.0);
}
