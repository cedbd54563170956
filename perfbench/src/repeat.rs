//! The steadiness report: runs this program `k` times per workload with
//! seeds `seed..seed+k` (set A) and again with the next `k` seeds (set B),
//! and prints for every metric the median, quartiles, min/max, the spread
//! (interquartile distance over the median) and the drift of B's median
//! from A's. With a `BENCHMARK.json` in the working directory it also
//! checks each spread and drift against the metric's bound.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use smr_metrics::json::JsonValue;

use crate::stats;

/// (better, bound) per end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = JsonValue::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

/// One child run's metrics, or why it failed.
fn one_run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    // Interference from outside explains most outlying runs: show it.
    for line in stdout
        .lines()
        .filter(|l| l.contains("stolen by the hypervisor"))
    {
        eprintln!("{workload} seed {seed}: {line}");
    }
    if !out.status.success() {
        return Err(format!("exit {:?}: {last}", out.status.code()));
    }
    let doc = JsonValue::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let metrics = doc.get("metrics").ok_or("no metrics")?;
    let mut m = BTreeMap::new();
    for k in metrics.keys() {
        let v = metrics
            .get(k)
            .and_then(|x| x.get("value"))
            .and_then(JsonValue::as_f64)
            .ok_or("metric without value")?;
        m.insert(k.to_string(), v);
    }
    for key in ["attempted", "failed"] {
        let v = doc
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or("no counts")?;
        m.insert(format!("({key})"), v);
    }
    Ok(m)
}

/// Runs the two sets and prints the report; nonzero exit if a run failed
/// or a bound was missed.
pub fn report(workloads: &str, k: usize, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let bounds = bounds();
    let mut ok = true;
    for w in workloads.split(',') {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..k {
                let sd = seed + (s * k + i) as u64;
                let t = Instant::now();
                match one_run(w, sd, seconds, trace) {
                    Ok(m) => {
                        eprintln!("{w} seed {sd}: {:.1}s {m:?}", t.elapsed().as_secs_f64());
                        for (name, v) in m {
                            set.entry(name).or_default().push(v);
                        }
                    }
                    Err(e) => {
                        eprintln!("{w} seed {sd}: FAILED {e}");
                        ok = false;
                    }
                }
            }
        }
        println!("== {w}: {k} runs x 2 sets, {seconds}s each");
        println!(
            "{:<34} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>7}  verdict",
            "metric", "median A", "q1", "q3", "min", "max", "spread", "median B", "drift", "bound"
        );
        for (name, a) in &sets[0] {
            let b = sets[1].get(name).cloned().unwrap_or_default();
            let med_a = stats::median(a);
            let med_b = stats::median(&b);
            let (q1, q3) = stats::quartiles(a);
            let (bq1, bq3) = stats::quartiles(&b);
            let spread = ((q3 - q1) / med_a).abs().max(((bq3 - bq1) / med_b).abs());
            let drift = med_b / med_a - 1.0;
            let min = a.iter().copied().fold(f64::INFINITY, f64::min);
            let max = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (bound, verdict) = match bounds.get(name) {
                Some((better, bound)) => {
                    let worse = if better == "lower" { drift } else { -drift };
                    let spread_ok = name == "setup_s" || spread <= *bound;
                    let v = match (spread_ok, worse <= *bound) {
                        (true, true) if name == "setup_s" || spread < bound / 3.0 => "steady",
                        (true, true) => "within bound, spread above a third of it",
                        (false, _) => "SPREAD OVER BOUND",
                        (_, false) => "DRIFT OVER BOUND",
                    };
                    ok &= spread_ok && worse <= *bound;
                    (format!("{bound:.3}"), v)
                }
                None => ("-".into(), ""),
            };
            println!(
                "{name:<34} {med_a:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.2}% {med_b:>12.4} {:>7.2}% {bound:>7}  {verdict}",
                spread * 100.0,
                drift * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
