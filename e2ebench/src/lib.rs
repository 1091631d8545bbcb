//! The Gopher reproduction's benchmark: named workloads driven from outside
//! the program, through the `gopher_repro::prelude` session API, the data
//! generators, and the HTTP API of an in-process `Server`.
//!
//! A run takes `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! It builds its inputs from the seed, measures for the given seconds,
//! checks the answers, and prints report lines (`# ...`) followed by one
//! JSON line: `correct`, `attempted`, `failed` and `metrics`, which hold
//! the [`report::END_TO_END`] catalog untraced and the
//! [`report::PER_LAYER`] catalog traced. `NOTES.md` explains each workload
//! and metric.

pub mod http;
pub mod probes;
pub mod report;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod workloads;

use gopher_repro::prelude::{Dataset, Rng};
use report::Report;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Worker threads of every session the benchmark builds: the host's vCPU
/// count, set explicitly so results never depend on auto-detection.
pub const THREADS: usize = 2;

/// Share of each dataset held out as the test set.
pub const TEST_FRACTION: f64 = 0.3;

const USAGE: &str = "usage: e2ebench --workload <analyst-german10k|update-sqf100k|serve-dashboard|families-german500> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name, one of [`report::WORKLOADS`].
    pub workload: &'static str,
    /// Seed of every input stream.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether spans are recorded and the per-layer catalog printed.
    pub trace: bool,
}

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    report::WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// State one workload run fills in.
pub struct Ctx {
    /// The parsed command line.
    pub opts: Options,
    /// Spans of the benchmark's calls into the program (traced runs only).
    pub tracer: Tracer,
    /// Metrics, checks, and report lines.
    pub report: Report,
    /// Wall time the run spent in its measured phases.
    pub measured: Duration,
}

impl Ctx {
    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.opts.trace
    }

    /// Marks the end of set-up and warm-up: records `setup_rss_mb`, the
    /// peak resident memory so far. Memory at the end of the run also
    /// counts what the traffic cached, which depends on how much traffic
    /// the host got through; it is reported as `peak_rss_mb`.
    pub fn setup_done(&mut self) {
        if let Some(mb) = stats::peak_rss_mb() {
            self.report.set("setup_rss_mb", "MB", mb, 1);
        }
    }

    /// The measuring budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.opts.seconds)
    }
}

/// Splits `data` into train and test sets with a fixed seed.
pub fn split(data: &Dataset, seed: u64) -> (Dataset, Dataset) {
    data.train_test_split(TEST_FRACTION, &mut Rng::new(seed))
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Runs one workload from the command line, prints its report, and
/// returns the exit code: 0 after a complete run (whatever its checks
/// found), 2 on a usage error, 1 when the workload could not run, 3 when
/// a catalog metric went unmeasured.
pub fn run(args: &[String]) -> i32 {
    match execute(args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            0
        }
        Err((code, message)) => {
            eprintln!("e2ebench: {message}");
            code
        }
    }
}

/// Runs one workload and returns its output lines, the JSON line last, or
/// an exit code and message.
pub fn execute(args: &[String]) -> Result<Vec<String>, (i32, String)> {
    let opts = parse_args(args).map_err(|e| (2, format!("{e}\n{USAGE}")))?;
    let ref_start = stats::host_ref_ms();
    let mut ctx = Ctx {
        tracer: Tracer::new(opts.trace, Instant::now()),
        opts,
        report: Report::default(),
        measured: Duration::ZERO,
    };
    let outcome = match ctx.opts.workload {
        "analyst-german10k" => workloads::analyst::run(&mut ctx),
        "update-sqf100k" => workloads::update::run(&mut ctx),
        "serve-dashboard" => workloads::serve::run(&mut ctx),
        _ => workloads::families::run(&mut ctx),
    };
    if let Err(e) = outcome {
        return Err((1, format!("{} could not run: {e}", ctx.opts.workload)));
    }
    let ref_end = stats::host_ref_ms();
    finish(&mut ctx, ref_start, ref_end)
}

/// Adds the process-level metrics, writes the trace, and renders the report.
fn finish(ctx: &mut Ctx, ref_start: f64, ref_end: f64) -> Result<Vec<String>, (i32, String)> {
    let o = ctx.opts.clone();
    match stats::peak_rss_mb() {
        Some(mb) => ctx.report.set("peak_rss_mb", "MB", mb, 1),
        None => ctx
            .report
            .line("peak_rss_mb unavailable: no /proc/self/status"),
    }
    if o.trace {
        let cost_ns = trace::span_cost_ns();
        let spans = ctx.tracer.len();
        let pct = spans as f64 * cost_ns / ctx.measured.as_nanos().max(1) as f64 * 100.0;
        ctx.report.set("trace.overhead_pct", "%", pct, spans);
        ctx.report.line(format!(
            "tracing: {spans} spans at {cost_ns:.1} ns each over {:.3} s measured; compare this run's end-to-end metrics with the untraced run of the same seed for the observed overhead",
            ctx.measured.as_secs_f64()
        ));
        for (name, t) in ctx.tracer.self_times() {
            ctx.report.line(format!(
                "self_time {name}: spans {} self_ms total {:.3} median {:.4} / duration_ms median {:.4}",
                t.count,
                t.self_ms.iter().sum::<f64>(),
                stats::median(&t.self_ms),
                stats::median(&t.total_ms)
            ));
        }
        let file = format!("trace-{}-seed{}.jsonl", o.workload, o.seed);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(file);
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => ctx
                .report
                .line(format!("spans written to {}", path.display())),
            Err(e) => ctx.report.line(format!("spans not written: {e}")),
        }
    }
    let catalog = if o.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let mut lines = vec![
        format!(
            "# workload {} seed {} seconds {} trace {} threads {THREADS}",
            o.workload,
            o.seed,
            o.seconds,
            u8::from(o.trace)
        ),
        format!(
            "# host.ref_ms start {ref_start:.3} end {ref_end:.3} (diagnostic only; scales nothing)"
        ),
    ];
    lines.extend(ctx.report.render_lines());
    match ctx.report.json_line(catalog) {
        Ok(line) => {
            lines.push(line);
            Ok(lines)
        }
        Err(e) => Err((3, format!("{e}\n{}", lines.join("\n")))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_args(&args(
            "--workload serve-dashboard --seed 9 --seconds 25 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, "serve-dashboard");
        assert_eq!(o.seed, 9);
        assert_eq!(o.seconds, 25.0);
        assert!(o.trace);
        for bad in [
            "--workload nope --seed 1 --seconds 5",
            "--workload serve-dashboard --seconds 5",
            "--workload serve-dashboard --seed 1 --seconds 5 --trace 2",
            "--workload serve-dashboard --seed 1 --seconds",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
