//! `i2pscope` — the measurement tool's command line.
//!
//! ```text
//! i2pscope census  [--format text|csv] [--fig LIST] [knobs]
//! i2pscope harvest --out FILE [--resume] [knobs]
//! i2pscope figures (--from FILE | --live) [--format text|csv]
//!                  [--fig LIST] [--verify] [knobs]
//! i2pscope sweep   [--format text|csv] [knobs]
//! i2pscope sybil   [--sybils LIST] [--capture FILE]
//!                  [--format text|csv] [knobs]
//! i2pscope adversary (NAME | --adversary NAME | --list)
//!                  [--capture FILE] [--format text|csv] [knobs]
//! i2pscope validate --manifest FILE [--trace FILE] [--counters]
//!
//! knobs: --scale F  --seed N  --days N  --fleet N
//!        --replicates N  --threads N  --model uniform|keyspace
//!        --faults SPEC  --telemetry FILE  --trace FILE
//!        (defaults come from the I2PSCOPE_* environment variables)
//! ```

use i2pscope::cli::{self, FigId, Format, Knobs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: i2pscope <command> [options]

commands:
  census                 generate a world, harvest it live, print the
                         full measurement report
  harvest --out FILE     archive the harvested dataset as a snapshot
  figures --from FILE    render the paper's figures from a snapshot
  figures --live         render the same figures from a live harvest
  sweep                  run the Fig. 14 usability sweep (TestNet)
  sybil                  run the eclipse/Sybil sweep on the keyspace-
                         routed harvest (§4/§7 attack analysis)
  adversary NAME         run a registered adversary (or a '+'-chain,
                         e.g. sybil+censor) through the unified
                         scenario engine; --list prints the catalog
  validate --manifest FILE
                         check a telemetry run manifest (and, with
                         --trace FILE, a Chrome trace) against the
                         i2p-telemetry/1 schema; --counters prints
                         the deterministic counter totals instead,
                         one name=value per line, for diffing runs

options:
  --format text|csv      output format (default text)
  --fig LIST             comma-separated figures, e.g. 4,5,table1
                         (default all: 4,5,6,7,8,9,10,11,12,table1)
  --verify               figures --from: also decode and signature-
                         verify every archived RouterInfo record
  --model uniform|keyspace
                         harvest visibility model for census/harvest/
                         figures --live (default uniform, the oracle)
  --sybils LIST          sybil: comma-separated Sybil counts per day
                         (default 0,1,2,4,8,16,32)
  --capture FILE         sybil/adversary: archive the (attacked)
                         harvest as an .i2ps snapshot
  --adversary NAME       adversary: the registered name or '+'-chain
                         to run (or set I2PSCOPE_ADVERSARY)
  --list                 adversary: print the registered catalog
  --resume               harvest: recover an existing (possibly
                         truncated/corrupt) snapshot at --out and
                         harvest only the missing days
  --faults SPEC          deterministic fault plane, e.g.
                         loss=0.02,ff_crash=0.01,stall=5,outage=0.1
                         (or set I2PSCOPE_FAULTS; default no faults)
  --telemetry FILE       write a versioned run manifest (counters,
                         span tree, tallies, peak RSS) after the
                         command (or set I2PSCOPE_TELEMETRY); the
                         command's own output is byte-identical
                         either way
  --trace FILE           with a run command: also write the timing
                         plane as Chrome trace events (or set
                         I2PSCOPE_TRACE); with validate: the trace
                         file to check
  --scale F --seed N --days N --fleet N --replicates N --threads N
                         override the I2PSCOPE_* environment knobs
";

/// Why a run failed. Both kinds exit 2; only a usage error reprints
/// the usage text.
enum Failure {
    /// Bad arguments: from `parse_args` or a command's flag checks.
    Usage(String),
    /// The command itself failed (store, IO, adversary spec).
    Run(String),
}

impl Failure {
    fn usage(message: impl Into<String>) -> Self {
        Failure::Usage(message.into())
    }

    fn run(error: impl std::fmt::Display) -> Self {
        Failure::Run(error.to_string())
    }
}

struct Args {
    knobs: Knobs,
    format: Format,
    figs: Vec<FigId>,
    out: Option<PathBuf>,
    from: Option<PathBuf>,
    live: bool,
    verify: bool,
    sybils: Option<Vec<usize>>,
    capture: Option<PathBuf>,
    adversary: Option<String>,
    list: bool,
    resume: bool,
    telemetry: Option<PathBuf>,
    trace: Option<PathBuf>,
    manifest: Option<PathBuf>,
    counters: bool,
}

fn parse_args(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let command = argv.next().ok_or_else(|| "missing command".to_string())?;
    let mut args = Args {
        knobs: Knobs::from_env(),
        format: Format::Text,
        figs: FigId::ALL.to_vec(),
        out: None,
        from: None,
        live: false,
        verify: false,
        sybils: None,
        capture: None,
        adversary: None,
        list: false,
        resume: false,
        telemetry: None,
        trace: None,
        manifest: None,
        counters: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--format" => args.format = value("--format")?.parse()?,
            "--fig" => {
                args.figs = value("--fig")?
                    .split(',')
                    .map(FigId::parse)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--from" => args.from = Some(PathBuf::from(value("--from")?)),
            "--live" => args.live = true,
            "--verify" => args.verify = true,
            "--model" => args.knobs.model = value("--model")?.parse()?,
            "--faults" => args.knobs.faults = value("--faults")?.parse()?,
            "--resume" => args.resume = true,
            "--sybils" => {
                args.sybils = Some(
                    value("--sybils")?
                        .split(',')
                        .map(|c| parse_num(c.trim(), "--sybils"))
                        .collect::<Result<Vec<usize>, _>>()?,
                );
            }
            "--capture" => args.capture = Some(PathBuf::from(value("--capture")?)),
            "--telemetry" => args.telemetry = Some(PathBuf::from(value("--telemetry")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--manifest" => args.manifest = Some(PathBuf::from(value("--manifest")?)),
            "--counters" => args.counters = true,
            "--adversary" => args.adversary = Some(value("--adversary")?),
            "--list" => args.list = true,
            "--scale" => args.knobs.scale = parse_num(&value("--scale")?, "--scale")?,
            "--seed" => args.knobs.seed = parse_num(&value("--seed")?, "--seed")?,
            "--days" => args.knobs.days = parse_num(&value("--days")?, "--days")?,
            "--fleet" => args.knobs.fleet = parse_num(&value("--fleet")?, "--fleet")?,
            "--replicates" => {
                args.knobs.replicates = parse_num(&value("--replicates")?, "--replicates")?
            }
            "--threads" => args.knobs.threads = parse_num(&value("--threads")?, "--threads")?,
            // The adversary command takes its spec as a positional
            // argument (`i2pscope adversary sybil+censor`).
            other if command == "adversary" && !other.starts_with('-') => {
                if args.adversary.is_some() {
                    return Err(format!("adversary given twice (second: {other:?})"));
                }
                args.adversary = Some(other.to_string());
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok((command, args))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} {v:?} is not a valid {}", std::any::type_name::<T>()))
}

fn run() -> Result<String, Failure> {
    let mut argv = std::env::args();
    argv.next(); // program name
    let (command, args) = parse_args(argv).map_err(Failure::Usage)?;
    // Engine fills (and the capture signing on their workers) read
    // I2PSCOPE_THREADS themselves: export the resolved knob so that
    // `--threads N` governs them exactly as I2PSCOPE_THREADS=N does.
    std::env::set_var("I2PSCOPE_THREADS", args.knobs.threads.to_string());
    // Telemetry destinations: env knobs first, flags win. `validate`
    // and `help` never arm the plane — there `--trace` names an input
    // to check, not an output to write.
    let telemetry = match command.as_str() {
        "validate" | "help" | "--help" | "-h" => cli::TelemetryConfig::default(),
        _ => {
            let mut cfg = cli::TelemetryConfig::from_env();
            if args.telemetry.is_some() {
                cfg.manifest = args.telemetry.clone();
            }
            if args.trace.is_some() {
                cfg.trace = args.trace.clone();
            }
            cfg
        }
    };
    telemetry.arm();
    let out = dispatch(&command, &args)?;
    // The manifest snapshots counters/spans after the command (plus
    // the calibration probe); notices go to stderr so stdout stays
    // byte-identical to an untraced run.
    for note in telemetry.finish(&command, &args.knobs).map_err(Failure::Run)? {
        eprintln!("{note}");
    }
    Ok(out)
}

fn dispatch(command: &str, args: &Args) -> Result<String, Failure> {
    match command {
        "census" => Ok(cli::census(&args.knobs, args.format, &args.figs)),
        "harvest" => {
            let out = args.out.as_ref().ok_or_else(|| Failure::usage("harvest needs --out FILE"))?;
            cli::harvest(&args.knobs, out, args.resume).map_err(Failure::run)
        }
        "figures" => match (&args.from, args.live) {
            (Some(path), false) => {
                cli::figures_from(path, args.format, &args.figs, args.verify).map_err(Failure::run)
            }
            (None, true) => Ok(cli::figures_live(&args.knobs, args.format, &args.figs)),
            _ => Err(Failure::usage("figures needs exactly one of --from FILE or --live")),
        },
        "sweep" => Ok(cli::sweep(&args.knobs, args.format)),
        "sybil" => cli::sybil(
            &args.knobs,
            args.format,
            args.sybils.clone(),
            args.capture.as_deref(),
        )
        .map_err(Failure::run),
        "adversary" => {
            if args.list {
                return Ok(cli::adversary_catalog());
            }
            let spec = match args.adversary.clone().or_else(cli::adversary_from_env) {
                Some(spec) => spec,
                None => {
                    return Err(Failure::usage(format!(
                        "adversary needs a name (positional, --adversary NAME, or \
                         I2PSCOPE_ADVERSARY); registered: {}",
                        cli::adversary_names().join(", ")
                    )))
                }
            };
            cli::adversary(&args.knobs, &spec, args.format, args.capture.as_deref())
                .map_err(Failure::Run)
        }
        "validate" => validate(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(Failure::usage(format!("unknown command {other:?}"))),
    }
}

/// `i2pscope validate` — schema-checks a run manifest (and optionally
/// a Chrome trace) written by `--telemetry`/`--trace`, or dumps the
/// manifest's deterministic counters for cross-run diffing.
fn validate(args: &Args) -> Result<String, Failure> {
    let path =
        args.manifest.as_ref().ok_or_else(|| Failure::usage("validate needs --manifest FILE"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Run(format!("reading {}: {e}", path.display())))?;
    let summary = i2pscope::telemetry::manifest::validate_manifest(&text)
        .map_err(|e| Failure::Run(format!("{}: {e}", path.display())))?;
    if args.counters {
        return Ok(summary.counter_dump());
    }
    let mut out = format!(
        "manifest OK: schema={} command={} counters={} spans={} crates={}\n",
        summary.schema,
        summary.command,
        summary.counters.len(),
        summary.span_count(),
        summary.crates_covered().join(",")
    );
    if let Some(trace) = &args.trace {
        let text = std::fs::read_to_string(trace)
            .map_err(|e| Failure::Run(format!("reading {}: {e}", trace.display())))?;
        let events = i2pscope::telemetry::manifest::validate_trace(&text)
            .map_err(|e| Failure::Run(format!("{}: {e}", trace.display())))?;
        out.push_str(&format!("trace OK: events={events}\n"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(Failure::Usage(e)) => {
            eprintln!("i2pscope: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("i2pscope: {e}");
            ExitCode::from(2)
        }
    }
}
