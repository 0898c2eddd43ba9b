//! `e2e --workload W --seed N --seconds S --trace 0|1` runs one workload
//! and ends its standard output with the result line; without
//! `--workload` it runs the whole suite (see `benchmark/run.sh`).

use e2e::{report, run_workload, suite, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;

struct Args {
    cfg: Config,
    suite: bool,
    only: Option<String>,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: report::RUN_SECONDS,
        trace: false,
        er_bin: PathBuf::from("target/release/er"),
        layers_bin: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut agree = false;
    let mut workload = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not in (0, 600]"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                cfg.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--agree" => agree = true,
            "--er-bin" => cfg.er_bin = PathBuf::from(value("--er-bin")?),
            "--layers-bin" => cfg.layers_bin = Some(PathBuf::from(value("--layers-bin")?)),
            "--out-dir" => cfg.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let suite = agree || workload.is_none();
    if !suite {
        cfg.workload = workload.clone().expect("checked above");
    }
    Ok(Args {
        cfg,
        suite,
        only: workload,
        agree,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if !cfg.er_bin.is_file() {
        eprintln!("error: {} is not built", cfg.er_bin.display());
        return ExitCode::from(2);
    }
    if args.suite {
        return match suite::run_suite(cfg, args.only.as_deref(), args.agree) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("error: mkdir {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match run_workload(cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    report::print_lines(&cfg.workload, &outcome);
    match report::contract_metrics(&cfg.workload, cfg.trace, &outcome) {
        Ok(metrics) => {
            println!("{}", report::result_line(&outcome, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
