//! `benchmark compare`: the regression gate over two sets of runs.
//!
//! Each end-to-end metric of `BENCHMARK.json` is judged per workload
//! from the runs' medians and quartiles: *regressed* when the change's
//! median is worse than the parent's by more than the metric's bound,
//! *unresolved* when the run-to-run spread (interquartile range over the
//! median) of either side is wider than the bound — unless every run of
//! the change reads better than every run of the parent — and *ok*
//! otherwise.

use crate::metrics::Better;
use crate::stats::Summary;
use bf_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One metric as `BENCHMARK.json` declares it. Per-layer metrics carry
/// no bound; theirs reads 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` this tool reads, checked against the
/// file format: exactly the documented keys at every level.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Spec>,
    pub per_layer: Vec<Spec>,
}

fn exact_keys(obj: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let Json::Object(map) = obj else {
        return Err(format!("{what} is not an object"));
    };
    let mut have: Vec<&str> = map.keys().map(String::as_str).collect();
    let mut want = keys.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have == want {
        Ok(())
    } else {
        Err(format!(
            "{what} has keys {have:?}, expected exactly {want:?}"
        ))
    }
}

fn string(obj: &Json, key: &str, what: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{what}: `{key}` is not a string")),
    }
}

fn list<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match obj.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("`{key}` is not a list")),
    }
}

fn spec(m: &Json, with_bound: bool, what: &str) -> Result<Spec, String> {
    let keys: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    exact_keys(m, keys, what)?;
    let name = string(m, "name", what)?;
    let better = string(m, "better", what)?;
    let better =
        Better::parse(&better).ok_or_else(|| format!("{what} `{name}`: better is `{better}`"))?;
    let bound = if with_bound {
        let b = m.get("bound").and_then(Json::as_f64);
        match b {
            Some(b) if b > 0.0 && b <= 0.25 => b,
            _ => return Err(format!("{what} `{name}`: bound must be in (0, 0.25]")),
        }
    } else {
        0.0
    };
    Ok(Spec {
        unit: string(m, "unit", what)?,
        name,
        better,
        bound,
    })
}

impl Config {
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Config::parse(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(json: &Json) -> Result<Config, String> {
        exact_keys(
            json,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "BENCHMARK.json",
        )?;
        let run_seconds = json
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("`run_seconds` is not a number")?;
        let workloads = list(json, "workloads")?
            .iter()
            .map(|w| {
                exact_keys(w, &["name", "why"], "workload")?;
                string(w, "name", "workload")
            })
            .collect::<Result<_, String>>()?;
        let end_to_end = list(json, "end_to_end")?
            .iter()
            .map(|m| spec(m, true, "end_to_end metric"))
            .collect::<Result<_, String>>()?;
        let per_layer = list(json, "per_layer")?
            .iter()
            .map(|m| spec(m, false, "per_layer metric"))
            .collect::<Result<_, String>>()?;
        Ok(Config {
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }
}

/// The end-to-end values of one untraced run, read from its `--out` file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub workload: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    fn load(path: &Path) -> Result<RunFile, String> {
        let what = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{what}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{what}: {e}"))?;
        let workload = string(&json, "workload", &what)?;
        let Some(Json::Object(metrics)) = json.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{what}: no result metrics"));
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let v = m.get("value").and_then(Json::as_f64);
                v.map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("{what}: `{name}` has no value"))
            })
            .collect::<Result<_, String>>()?;
        Ok(RunFile { workload, metrics })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse the change's median is than the parent's, as a share
/// of the parent's (negative when it is better).
fn worse_by(parent: &Summary, change: &Summary, better: Better) -> f64 {
    let d = (change.median - parent.median) / parent.median.abs();
    match better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (p, c) = (Summary::of(parent), Summary::of(change));
    let all_better = match better {
        Better::Lower => change.iter().all(|c| parent.iter().all(|p| c < p)),
        Better::Higher => change.iter().all(|c| parent.iter().all(|p| c > p)),
    };
    let spread = p.spread().max(c.spread());
    if spread.is_nan() || spread > bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by(&p, &c, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub spec: Spec,
    pub parent: Summary,
    pub change: Summary,
    pub verdict: Verdict,
}

impl Row {
    fn render(&self) -> String {
        let side = |s: &Summary| format!("{:.6} [{:.6} {:.6}] n={}", s.median, s.q1, s.q3, s.n);
        format!(
            "{:<14} {:<12} parent {} | change {} | worse by {:+.2}% (bound {:.1}%) {}",
            self.workload,
            self.spec.name,
            side(&self.parent),
            side(&self.change),
            worse_by(&self.parent, &self.change, self.spec.better) * 100.0,
            self.spec.bound * 100.0,
            self.verdict.label()
        )
    }
}

/// One row per workload (in the parent runs) × end-to-end metric.
pub fn compare(cfg: &Config, parent: &[RunFile], change: &[RunFile]) -> Result<Vec<Row>, String> {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let values = |runs: &[RunFile], w: &str, name: &str| -> Result<Vec<f64>, String> {
        runs.iter()
            .filter(|r| r.workload == w)
            .map(|r| {
                r.metrics
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("a {w} run lacks `{name}`"))
            })
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for spec in &cfg.end_to_end {
            let (p, c) = (
                values(parent, w, &spec.name)?,
                values(change, w, &spec.name)?,
            );
            if c.is_empty() {
                return Err(format!("no change runs of {w}"));
            }
            rows.push(Row {
                workload: w.to_owned(),
                spec: spec.clone(),
                parent: Summary::of(&p),
                change: Summary::of(&c),
                verdict: judge(&p, &c, spec.better, spec.bound),
            });
        }
    }
    Ok(rows)
}

/// The parent runs with every end-to-end metric made `pct` percent worse.
pub fn worsened(cfg: &Config, runs: &[RunFile], pct: f64) -> Vec<RunFile> {
    let factor = pct / 100.0;
    runs.iter()
        .map(|r| {
            let mut r = r.clone();
            for spec in &cfg.end_to_end {
                if let Some(v) = r.metrics.get_mut(&spec.name) {
                    *v *= match spec.better {
                        Better::Lower => 1.0 + factor,
                        Better::Higher => 1.0 - factor,
                    };
                }
            }
            r
        })
        .collect()
}

/// The synthetic self-test passes when the gate trips: some row reads
/// regressed, and no metric whose bound the worsening exceeds reads ok.
pub fn synthetic_tripped(rows: &[Row], pct: f64) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
        && rows
            .iter()
            .all(|r| r.spec.bound >= pct / 100.0 || r.verdict != Verdict::Ok)
}

struct Args {
    config: PathBuf,
    parent: Vec<PathBuf>,
    change: Vec<PathBuf>,
    synthetic: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        config: "BENCHMARK.json".into(),
        parent: Vec::new(),
        change: Vec::new(),
        synthetic: None,
    };
    let mut list: Option<&mut Vec<PathBuf>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => list = Some(&mut out.parent),
            "--change" => list = Some(&mut out.change),
            "--config" => {
                out.config = it.next().ok_or("--config needs a path")?.into();
                list = None;
            }
            "--synthetic" => {
                let v = it.next().ok_or("--synthetic needs a percentage")?;
                let pct: f64 = v
                    .parse()
                    .map_err(|_| format!("--synthetic {v}: not a number"))?;
                if !(pct > 0.0 && pct < 100.0) {
                    return Err(format!("--synthetic {v}: want a percentage in (0, 100)"));
                }
                out.synthetic = Some(pct);
                list = None;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            path => match list.as_deref_mut() {
                Some(l) => l.push(path.into()),
                None => return Err(format!("`{path}` follows no --parent or --change")),
            },
        }
    }
    if out.parent.is_empty() {
        return Err("no --parent runs".into());
    }
    if out.change.is_empty() == out.synthetic.is_none() {
        return Err("give either --change runs or --synthetic PCT".into());
    }
    Ok(out)
}

pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_args(args)?;
    let cfg = Config::load(&args.config)?;
    let load = |paths: &[PathBuf]| {
        paths
            .iter()
            .map(|p| RunFile::load(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let parent = load(&args.parent)?;
    let change = match args.synthetic {
        Some(pct) => worsened(&cfg, &parent, pct),
        None => load(&args.change)?,
    };
    let rows = compare(&cfg, &parent, &change)?;
    for row in &rows {
        println!("{}", row.render());
    }
    Ok(match args.synthetic {
        Some(pct) => {
            let tripped = synthetic_tripped(&rows, pct);
            println!(
                "synthetic {pct}% worsening: gate {}",
                if tripped {
                    "tripped (self-test passed)"
                } else {
                    "did NOT trip (self-test failed)"
                }
            );
            tripped
        }
        None => {
            let ok = rows.iter().all(|r| r.verdict == Verdict::Ok);
            println!("gate: {}", if ok { "pass" } else { "FAIL" });
            ok
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            run_seconds: 10.0,
            workloads: vec!["w".into()],
            end_to_end: vec![
                Spec {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    better: Better::Lower,
                    bound: 0.25,
                },
                Spec {
                    name: "items_per_s".into(),
                    unit: "1/s".into(),
                    better: Better::Higher,
                    bound: 0.1,
                },
            ],
            per_layer: Vec::new(),
        }
    }

    fn runs(values: &[(f64, f64)]) -> Vec<RunFile> {
        values
            .iter()
            .map(|&(setup, items)| RunFile {
                workload: "w".into(),
                metrics: [
                    ("setup_s".to_owned(), setup),
                    ("items_per_s".to_owned(), items),
                ]
                .into(),
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(
                &parent,
                &[99.0, 100.0, 98.5, 99.2, 100.1],
                Better::Higher,
                0.1
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &parent,
                &[85.0, 86.0, 84.0, 85.5, 84.5],
                Better::Higher,
                0.1
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &parent,
                &[115.0, 116.0, 114.0, 115.5, 114.5],
                Better::Lower,
                0.1
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &[85.0, 86.0, 84.0, 85.5, 84.5], Better::Lower, 0.1),
            Verdict::Ok
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(
                &noisy,
                &[100.0, 99.0, 101.0, 98.0, 102.0],
                Better::Higher,
                0.1
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &noisy,
                &[150.0, 151.0, 152.0, 153.0, 154.0],
                Better::Higher,
                0.1
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn synthetic_worsening_trips_the_gate() {
        let parent = runs(&[
            (1.0, 50.0),
            (1.02, 50.5),
            (0.99, 49.8),
            (1.01, 50.2),
            (1.0, 49.9),
        ]);
        let rows = compare(&cfg(), &parent, &parent).expect("comparable");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(!synthetic_tripped(&rows, 30.0));
        let rows = compare(&cfg(), &parent, &worsened(&cfg(), &parent, 30.0)).expect("comparable");
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Regressed),
            "{rows:?}"
        );
        assert!(synthetic_tripped(&rows, 30.0));
        // 15 % passes the 25 % setup bound but not the 10 % throughput bound.
        let rows = compare(&cfg(), &parent, &worsened(&cfg(), &parent, 15.0)).expect("comparable");
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, [Verdict::Ok, Verdict::Regressed]);
        assert!(synthetic_tripped(&rows, 15.0));
    }

    #[test]
    fn config_requires_exact_keys() {
        let good = r#"{"command": ["x"], "paths": ["p"], "run_seconds": 10,
            "workloads": [{"name": "w", "why": "because"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "a.b", "unit": "count", "better": "higher"}]}"#;
        let cfg = Config::parse(&Json::parse(good).unwrap()).expect("valid");
        assert_eq!(cfg.end_to_end[0].bound, 0.25);
        assert_eq!(cfg.per_layer[0].better, Better::Higher);
        let extra = good.replace(r#""why": "because""#, r#""why": "because", "x": 1"#);
        assert!(Config::parse(&Json::parse(&extra).unwrap()).is_err());
        let loose = good.replace("0.25", "0.5");
        assert!(Config::parse(&Json::parse(&loose).unwrap()).is_err());
    }

    #[test]
    fn arguments_need_parent_and_exactly_one_comparison() {
        let s = |v: &[&str]| v.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        assert!(parse_args(&s(&["--parent", "a", "b", "--change", "c"])).is_ok());
        assert!(parse_args(&s(&["--parent", "a", "--synthetic", "30"])).is_ok());
        assert!(parse_args(&s(&["--parent", "a"])).is_err());
        assert!(parse_args(&s(&["--parent", "a", "--change", "c", "--synthetic", "30"])).is_err());
        assert!(parse_args(&s(&["a"])).is_err());
        assert!(parse_args(&s(&["--parent", "a", "--synthetic", "300"])).is_err());
    }
}
