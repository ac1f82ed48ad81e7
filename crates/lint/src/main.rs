//! `i2p-lint` command line. See `lib.rs` and DESIGN.md §11.

use i2p_lint::{scan, Config};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: i2p-lint [--deny] [--format text|json] [--root DIR] [PATHS…]

Statically checks the workspace against the determinism & purity
invariant catalog (DESIGN.md §11): clock bans, nondeterministic-hash
bans, RNG containment, IO containment, thread-identity bans, the
panic audit, the unsafe audit, and public items no other file names
(pub-reach).

options:
  --deny               exit nonzero when any finding survives (CI gate)
  --format text|json   report format (default text; json is the CI
                       artifact — the summary line then goes to stderr)
  --root DIR           workspace root for relative paths (default: the
                       workspace this binary was built from)
  PATHS…               files or directories to scan instead of the
                       whole workspace (fixtures are skipped on a
                       whole-workspace scan, included for explicit
                       paths)
";

struct Args {
    deny: bool,
    json: bool,
    root: PathBuf,
    paths: Vec<PathBuf>,
}

/// The workspace this binary was built from: two levels up from the
/// lint crate's own manifest.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { deny: false, json: false, root: default_root(), paths: Vec::new() };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--deny" => args.deny = true,
            "--format" => {
                let v = it.next().ok_or("--format needs a value (text|json)")?;
                args.json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a value")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("i2p-lint: {message}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = if args.paths.is_empty() {
        Config::workspace(args.root)
    } else {
        Config::paths(args.root, args.paths)
    };
    let report = match scan::run(&config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // The JSON artifact must stay parseable, so its summary line goes
    // to stderr; in text mode both share stdout.
    if args.json {
        print!("{}", report.render_json());
        eprintln!("{}", report.summary());
    } else {
        print!("{}", report.render_text());
        println!("{}", report.summary());
    }
    if args.deny && !report.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
