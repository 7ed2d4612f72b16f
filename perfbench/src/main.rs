//! Closed-loop benchmark of the LCM-protected key-value store.
//!
//! ```text
//! lcm-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! `perfbench/run.py` is the entry point: it builds this program, runs
//! it, and prints the report. The workload's frozen shape comes from the
//! table in `config.rs`. With `--trace 0`
//! the last stdout line carries the end-to-end metrics of one untraced
//! window; with `--trace 1` it carries the per-layer metrics of a window
//! whose every second chunk is traced (spans written to `--spans`), and
//! the tracing overhead as the ops/s of untraced over traced chunks.
//! Exits with 1 if any operation failed, 2 on bad arguments.

mod config;
mod drive;
mod gen;
mod report;
mod storage;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use config::{Config, SETUPS};
use drive::{Bench, Until, Window};
use trace::Tracer;

struct Args {
    seed: u64,
    seconds: f64,
    trace: bool,
    config: &'static Config,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--spans" => &mut spans,
            other => return Err(format!("unknown flag {other}")),
        };
        *slot = Some(value);
    }
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("{flag} is required"));
    let workload = need(workload, "--workload")?;
    let config = config::workload(&workload).ok_or_else(|| {
        let names: Vec<&str> = config::WORKLOADS.iter().map(|c| c.name).collect();
        format!("unknown workload {workload}; known: {}", names.join(", "))
    })?;
    let seconds: f64 = need(seconds, "--seconds")?
        .parse()
        .map_err(|_| "--seconds is not a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        seed: need(seed, "--seed")?
            .parse()
            .map_err(|_| "--seed is not a u64")?,
        seconds,
        trace: match need(trace, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        config,
        spans: spans.map(Into::into),
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<(Vec<report::Metric>, Vec<Window>), String> {
    let cfg = args.config;
    let tracer = Arc::new(Tracer::default());
    let warmup = Until::Issued(cfg.warmup_ops);
    let window = Until::Elapsed(Duration::from_secs_f64(args.seconds));
    if !args.trace {
        // Set up several times and keep the last deployment: setup_s
        // is the median, so one slow set-up does not move it.
        let mut setup_s = Vec::new();
        let mut bench = None;
        for _ in 0..SETUPS {
            drop(bench.take());
            let t = Instant::now();
            bench = Some(Bench::setup(cfg, args.seed, tracer.clone())?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut bench = bench.expect("at least one set-up");
        let warm = bench.run(warmup, false);
        // Taken before the window: the deployment is warm, and the
        // window's per-op sample buffers, which grow with throughput,
        // do not count.
        let peak_rss_mb = peak_rss_mb();
        let w = bench.run(window, false);
        let metrics = report::end_to_end(&w, report::median(setup_s), peak_rss_mb);
        return Ok((metrics, vec![warm, w]));
    }
    let mut bench = Bench::setup(cfg, args.seed, tracer.clone())?;
    let warm = bench.run(warmup, false);
    let w = bench.run(window, true);
    let spans = tracer.take();
    if let Some(path) = &args.spans {
        trace::write_spans(path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    }
    let metrics = report::per_layer(&w, &spans);
    Ok((metrics, vec![warm, w]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lcm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, windows) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("lcm-perfbench: {e}");
            println!("{}", report::json_line(1, 1, &[], &[e]));
            return ExitCode::from(1);
        }
    };
    println!("config {}", args.config);
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let errors: Vec<String> = windows.iter().flat_map(|w| w.errors.clone()).collect();
    for e in &errors {
        eprintln!("lcm-perfbench: FAILED {e}");
    }
    println!(
        "{}",
        report::json_line(attempted, failed, &metrics, &errors)
    );
    if failed == 0 && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
