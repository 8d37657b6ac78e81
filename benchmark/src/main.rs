//! Host + simulated end-to-end benchmark of the StreamBox-HBM engine, with
//! a per-layer trace taken from outside (see `README.md` beside this
//! package). Drives the engine only through public library functions.

#![forbid(unsafe_code)]

mod e2e;
mod json;
mod metrics;
mod procfs;
mod spans;
mod speedref;
mod stats;
mod tap;
mod traced;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Better, E2E, PER_LAYER};
use tap::Rep;
use workloads::{Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 25;

const USAGE: &str = "\
usage: run.sh [run] (--all | --workload W) [--traced | --trace 0|1] [common]
       run.sh repeat [common]      run the end-to-end set twice, compare with the bounds
       run.sh manifest             print BENCHMARK.json from the metric tables
common: --seed N (7)  --seconds S (25)  --out DIR (benchmark/results)
        --quick (smoke: short reps, one set-up, no bound check)
        --corrupt-oracle (self-test: must report failures and exit 1)
workloads: ysb sum_highcard_sort sum_lowcard_adaptive sum_ckpt_tight_hbm";

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed handed to the repository's sources.
    pub seed: u64,
    /// Seconds the timed part lasts.
    pub seconds: f64,
    /// Smoke mode.
    pub quick: bool,
    /// Self-test: make the reference wrong in one row.
    pub corrupt_oracle: bool,
    /// Where result files go.
    pub out_dir: PathBuf,
}

impl Options {
    /// How often set-up is repeated (its median is reported).
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Fewest timed reps, whatever `seconds` says.
    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Reasons the run is not correct beyond failed windows.
    errors: Vec<String>,
    notes: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
    /// Extra figures for the result file (quartiles, sample counts).
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a rep's windows to the attempted/failed tally.
    pub fn count(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
    }

    /// Share of attempted windows that failed.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Marks the run incorrect for `why`.
    pub fn fail(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Something the reader should know that does not make the run wrong.
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// Records metric `name`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The measured values of exactly the `expected` metrics, in that
    /// order.
    fn values(&self, expected: &[(&'static str, &'static str)]) -> Result<Vec<f64>, String> {
        if self.metrics.len() != expected.len() {
            return Err("the metrics measured are not the dictionary's".into());
        }
        expected
            .iter()
            .map(|&(name, _)| {
                let mut hits = self.metrics.iter().filter(|(n, _)| *n == name);
                match (hits.next(), hits.next()) {
                    (Some(&(_, value)), None) if value.is_finite() => Ok(value),
                    (Some(&(_, value)), None) => Err(format!("metric {name} is {value}")),
                    _ => Err(format!("metric {name} was not measured exactly once")),
                }
            })
            .collect()
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    fn result(&self, expected: &[(&'static str, &'static str)], values: &[f64]) -> Json {
        let members = expected
            .iter()
            .zip(values)
            .map(|(&(name, unit), &value)| {
                let metric = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), metric)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(members)),
        ])
    }
}

#[derive(Debug)]
enum Mode {
    Run {
        workload: Option<String>,
        trace: bool,
    },
    Repeat,
    Manifest,
}

fn parse_args(args: &[String]) -> Result<(Mode, Options), String> {
    let mut opts = Options {
        seed: 7,
        seconds: f64::from(DEFAULT_SECONDS),
        quick: false,
        corrupt_oracle: false,
        out_dir: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter().map(String::as_str).peekable();
    let sub = match it.peek() {
        Some(&s) if !s.starts_with("--") => {
            it.next();
            s
        }
        _ => "run",
    };
    let (mut workload, mut all, mut trace, mut seconds_given) = (None, false, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workload" => workload = Some(value()?.to_string()),
            "--all" => all = true,
            "--traced" => trace = true,
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "--quick" => opts.quick = true,
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if opts.quick && !seconds_given {
        opts.seconds = 1.0;
    }
    let mode = match sub {
        "run" => {
            if all == workload.is_some() {
                return Err("give exactly one of --all and --workload".into());
            }
            if let Some(name) = &workload {
                Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            }
            Mode::Run { workload, trace }
        }
        "repeat" => Mode::Repeat,
        "manifest" => Mode::Manifest,
        other => return Err(format!("unknown subcommand {other}")),
    };
    Ok((mode, opts))
}

fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        E2E.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Runs one workload in this process; prints every metric by name, then
/// the result object as the last line. `Ok(false)` means the run finished
/// but its outputs were wrong.
fn run_here(w: &'static Workload, trace: bool, opts: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {:?}: {e}", opts.out_dir))?;
    let outcome = if trace {
        traced::run(w, opts)?
    } else {
        e2e::run(w, opts)?
    };
    let expected = expected_metrics(trace);
    let values = outcome.values(&expected)?;
    let result = outcome.result(&expected, &values);

    let file = opts.out_dir.join(format!(
        "{}.{}json",
        w.name,
        if trace { "traced." } else { "" }
    ));
    let mut doc = vec![
        ("workload".to_string(), Json::Str(w.name.into())),
        ("seed".to_string(), Json::Num(opts.seed as f64)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        (
            "host_threads_available".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("result".to_string(), result.clone()),
    ];
    doc.extend(outcome.detail.iter().cloned());
    std::fs::write(&file, Json::Obj(doc).to_line() + "\n")
        .map_err(|e| format!("write {file:?}: {e}"))?;

    let mut stderr = std::io::stderr().lock();
    for line in outcome.notes.iter().chain(&outcome.errors) {
        writeln!(stderr, "{}: {line}", w.name).map_err(|e| e.to_string())?;
    }
    let mut stdout = std::io::stdout().lock();
    for ((name, unit), value) in expected.iter().zip(&values) {
        writeln!(stdout, "{} {name} {value} {unit}", w.name).map_err(|e| e.to_string())?;
    }
    writeln!(stdout, "{}", result.to_line()).map_err(|e| e.to_string())?;
    Ok(outcome.correct())
}

/// Runs one workload in a process of its own (clean peak RSS), echoing
/// its output; returns its result object.
fn run_child(w: &Workload, trace: bool, opts: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped());
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.corrupt_oracle {
        cmd.arg("--corrupt-oracle");
    }
    let child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let output = child.wait_with_output().map_err(|e| format!("wait: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    std::io::stdout()
        .lock()
        .write_all(text.as_bytes())
        .map_err(|e| e.to_string())?;
    let last = text.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name))?;
    if !output.status.success() {
        return Err(format!("{}: exited with {}", w.name, output.status));
    }
    Ok(result)
}

fn run_all(trace: bool, opts: &Options) -> Result<Vec<Json>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w, trace, opts))
        .collect()
}

fn metric_of(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result has no {name}"))
}

/// Runs the end-to-end set twice and holds the two against the bounds.
fn repeat(opts: &Options) -> Result<bool, String> {
    let mut sets = Vec::new();
    for k in 1..=2 {
        let mut o = opts.clone();
        o.out_dir = opts.out_dir.join(format!("repeat{k}"));
        sets.push(run_all(false, &o)?);
    }
    let mut stdout = std::io::stdout().lock();
    let mut ok = true;
    writeln!(stdout, "workload metric first second gap bound verdict")
        .map_err(|e| e.to_string())?;
    for (w, (first, second)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        for m in E2E {
            let (a, b) = (metric_of(first, m.name)?, metric_of(second, m.name)?);
            let gap = (b - a).abs() / a.abs();
            // Simulated time is a function of the input alone.
            let bound = if m.name.starts_with("sim_") {
                0.0
            } else {
                m.bound
            };
            let within = opts.quick || gap <= bound;
            ok &= within;
            writeln!(
                stdout,
                "{} {} {a} {b} {gap:.4} {bound} {}",
                w.name,
                m.name,
                if within { "ok" } else { "OUT-OF-BOUND" }
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(ok)
}

/// `BENCHMARK.json`, generated from the metric and workload tables.
fn manifest() -> String {
    let better = |b: Better| Json::Str(b.label().into());
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.to_line()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::Str(w.name.into())),
                ("why".into(), Json::Str(w.why.into())),
            ])
        })
        .collect();
    let e2e = E2E
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.into())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("better".into(), better(m.better)),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.into())),
                ("unit".into(), Json::Str(m.unit.into())),
                ("better".into(), better(m.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {DEFAULT_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(e2e),
        list(layers)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut stderr = std::io::stderr().lock();
    let (mode, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            // Nothing useful to do if stderr itself is gone.
            let _ = writeln!(stderr, "error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(stderr);
    let done = match mode {
        Mode::Run {
            workload: Some(name),
            trace,
        } => run_here(
            Workload::by_name(&name).expect("checked by parse_args"),
            trace,
            &opts,
        ),
        Mode::Run {
            workload: None,
            trace,
        } => run_all(trace, &opts).map(|_| true),
        Mode::Repeat => repeat(&opts),
        Mode::Manifest => std::io::stdout()
            .lock()
            .write_all(manifest().as_bytes())
            .map(|()| true)
            .map_err(|e| e.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            let _ = writeln!(std::io::stderr().lock(), "error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let (mode, opts) =
            parse_args(&args("--workload ysb --seed 11 --seconds 20 --trace 1")).expect("parses");
        assert!(matches!(mode, Mode::Run { workload: Some(w), trace: true } if w == "ysb"));
        assert_eq!((opts.seed, opts.seconds, opts.quick), (11, 20.0, false));
        assert_eq!(opts.setups(), 3);
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "",
            "--workload join",
            "--all --workload ysb",
            "--workload ysb --trace 2",
            "--workload ysb --seconds 0",
            "--workload ysb --seconds 61",
            "--workload ysb --seed",
            "frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        let (_, quick) = parse_args(&args("run --all --quick")).expect("parses");
        assert_eq!(
            (quick.seconds, quick.setups(), quick.min_reps()),
            (1.0, 1, 1)
        );
    }

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn result_object_demands_the_whole_dictionary() {
        let dict = [("a", "s"), ("b", "ms")];
        let mut o = Outcome {
            attempted: 8,
            ..Outcome::default()
        };
        o.metric("b", 2.0);
        assert!(o.values(&dict).is_err(), "a is missing");
        o.metric("a", f64::NAN);
        assert!(o.values(&dict).is_err(), "a is not a number");
        o.metrics[1].1 = 1.5;
        let values = o.values(&dict).expect("complete");
        assert_eq!(values, [1.5, 2.0], "dictionary order, not measuring order");
        assert_eq!(
            o.result(&dict, &values).to_line(),
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        o.failed = 1;
        assert_eq!(
            o.result(&dict, &values).get("correct"),
            Some(&Json::Bool(false))
        );
        o.metric("c", 1.0);
        assert!(o.values(&dict).is_err(), "c is not in the dictionary");
    }
}
