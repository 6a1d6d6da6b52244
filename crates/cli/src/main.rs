//! `drift` — the command-line interface to the Drift reproduction.
//!
//! ```text
//! drift models                          list the model zoo
//! drift select  [--profile bert] [--tokens 64] [--hidden 256] [--delta 0.3] [--seed 7]
//! drift schedule [--m 512] [--k 768] [--n 768] [--fa 0.2] [--fw 0.1]
//! drift simulate [--model BERT] [--accel drift] [--delta 0.027] [--seed 42]
//! drift serve    [--jobs jobs.jsonl|-] [--workers 8] [--lenient]
//!                [--store sched.drift] [--metrics-addr 127.0.0.1:9109] [--metrics-out run.json]
//! drift gateway  [--addr 127.0.0.1:7077] [--workers 8] [--queue-depth 256]
//! drift router   --shards addr1,addr2,... [--addr 127.0.0.1:7177]
//! drift loadgen  [--addr 127.0.0.1:7077] [--clients 4] [--jobs 200] [--open-loop 500]
//!                [--deadline-ms 50] [--deadline-jitter-ms 50]
//! drift gateway-stop [--addr 127.0.0.1:7077]
//! drift router-stop  [--addr 127.0.0.1:7177]
//! drift store    inspect|verify|compact sched.drift | merge out.drift in1 in2...
//! drift report   run.json
//! drift trace    router.jsonl gw0.jsonl gw1.jsonl [--top 3]
//! drift area
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within
//! the workspace's dependency budget. An option the command does not
//! read is refused.

mod commands;
mod trace_cmd;

use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    // `report`, `trace`, and `store` take positional file paths, not
    // pure `--key value` pairs.
    let result = if command == "report" {
        commands::report(rest)
    } else if command == "trace" {
        trace_cmd::trace(rest)
    } else if command == "store" {
        commands::store(rest)
    } else {
        let Some(known) = options_of(command) else {
            eprintln!("error: unknown command '{command}'");
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        };
        let opts = match parse_opts(rest, known) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            }
        };
        match command.as_str() {
            "models" => commands::models(),
            "select" => commands::select(&opts),
            "schedule" => commands::schedule(&opts),
            "simulate" => commands::simulate(&opts),
            "serve" => commands::serve(&opts),
            "gateway" => commands::gateway(&opts),
            "router" => commands::router(&opts),
            "loadgen" => commands::loadgen(&opts),
            "gateway-stop" => commands::stop(&opts, "gateway", "127.0.0.1:7077"),
            "router-stop" => commands::stop(&opts, "router", "127.0.0.1:7177"),
            "area" => commands::area(),
            "help" | "--help" | "-h" => {
                println!("{}", usage());
                Ok(())
            }
            other => Err(format!("unknown command '{other}'")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "drift — dynamic precision quantization & accelerator simulation\n\
     \n\
     commands:\n\
     \x20 models                         list the model zoo with GEMM counts and MACs\n\
     \x20 select   [--profile cnn|vit|bert|llm] [--tokens N] [--hidden K]\n\
     \x20          [--delta D] [--seed S]      run the Drift selector on synthetic data\n\
     \x20 schedule [--m M] [--k K] [--n N] [--fa F] [--fw F]\n\
     \x20                                 balance the fabric for a precision mix (Eq. 8)\n\
     \x20 simulate [--model NAME] [--accel drift|bitfusion|drq|eyeriss]\n\
     \x20          [--delta D] [--seed S] per-layer cycles for a zoo model\n\
     \x20          [--trace FILE]         write the per-layer trace as JSON\n\
     \x20 serve    [--jobs FILE|-] [--workers N] [--queue-depth Q]\n\
     \x20          [--cache-capacity C]   run a JSONL job stream on a worker pool;\n\
     \x20                                 results to stdout, report to stderr\n\
     \x20          [--lenient]            skip malformed job lines instead of aborting\n\
     \x20          [--store FILE]         warm-start the schedule cache from a persistent\n\
     \x20                                 store, appending new schedules (docs/PERSISTENCE.md)\n\
     \x20          [--metrics-addr A]     serve Prometheus text on http://A/metrics\n\
     \x20          [--metrics-out FILE]   write the final metrics snapshot as JSON\n\
     \x20 gateway  [--addr A] [--workers N] [--queue-depth Q]\n\
     \x20          [--cache-capacity C]   serve jobs over TCP (newline-delimited JSON,\n\
     \x20                                 see docs/SERVING.md); drains on\n\
     \x20                                 {\"control\":\"shutdown\"}\n\
     \x20          [--store FILE]         warm-start + persist schedules (docs/PERSISTENCE.md)\n\
     \x20          [--port-file FILE]     write the bound address (for --addr with port 0)\n\
     \x20          [--metrics-addr A] [--metrics-out FILE]   as for serve\n\
     \x20 router   --shards A1,A2,...    consistent-hash front tier over gateways\n\
     \x20          [--addr A] [--port-file FILE]\n\
     \x20          [--metrics-addr A] [--metrics-out FILE]   as for serve; reshards\n\
     \x20                                 live on {\"control\":\"reshard\",...} (docs/SERVING.md)\n\
     \x20 loadgen  [--addr A] [--clients C] [--jobs N] [--shapes S] [--seed S]\n\
     \x20          [--deadline-ms D] [--deadline-jitter-ms J] [--open-loop RPS]\n\
     \x20          [--burst-ms W] [--connect-per-request] [--batch B]\n\
     \x20          [--schedule-only]      small-job stream (cache-hit Schedule jobs)\n\
     \x20                                 drive a gateway; throughput + p50/p99 +\n\
     \x20                                 deadline-met rate on stderr\n\
     \x20          [--json]               append a machine-readable summary JSON line\n\
     \x20                                 to stdout after the results\n\
     \x20 gateway-stop [--addr A]        ask a gateway to drain and exit\n\
     \x20 router-stop  [--addr A]        ask a router to drain and exit\n\
     \x20 store    inspect FILE          header, record count, and load health of a store\n\
     \x20          verify FILE [--deep]  strict checksum walk (--deep re-solves every entry)\n\
     \x20          compact FILE          rewrite to one record per key (last wins)\n\
     \x20          merge OUT IN...       combine stores; later inputs win on key clashes\n\
     \x20 report   FILE|-                render a --metrics-out JSON snapshot as a table\n\
     \x20 trace    FILE...               merge --trace-out span files by trace id:\n\
     \x20          [--top K]             timelines, per-stage p50/p99, critical path,\n\
     \x20          [--check-services S1,S2] [--check-hops svc.stage,...]\n\
     \x20          [--expect-traces N] [--allow-orphans]   smoke-test assertions\n\
     \x20 area                           the 40 nm area breakdown\n\
     \n\
     serve, gateway, and router also accept distributed-tracing flags\n\
     (docs/OBSERVABILITY.md):\n\
     \x20 --trace-out FILE               append spans as JSONL to FILE\n\
     \x20 --trace-sample 1/N             head-sample 1 in N requests at the ingress\n\
     \x20                                edge (downstream tiers honor the decision)\n\
     \x20 --trace-seed S                 make the sampled trace-id set reproducible"
        .to_string()
}

/// The options a `--key value` command reads, space-separated, or
/// `None` for an unknown command. Any other option is refused, so a
/// typo or a retired option fails instead of running with defaults.
fn options_of(command: &str) -> Option<&'static str> {
    Some(match command {
        "models" | "area" | "help" | "--help" | "-h" => "",
        "select" => "profile tokens hidden delta seed",
        "schedule" => "m k n fa fw",
        "simulate" => "model accel delta seed trace",
        "serve" => {
            "jobs workers queue-depth cache-capacity lenient store \
             metrics-addr metrics-out trace-out trace-sample trace-seed"
        }
        "gateway" => {
            "addr workers queue-depth cache-capacity store port-file \
             metrics-addr metrics-out trace-out trace-sample trace-seed"
        }
        "router" => {
            "shards addr port-file metrics-addr metrics-out trace-out trace-sample trace-seed"
        }
        "loadgen" => {
            "addr clients jobs shapes seed deadline-ms deadline-jitter-ms open-loop burst-ms \
             connect-per-request batch schedule-only json"
        }
        "gateway-stop" | "router-stop" => "addr",
        _ => return None,
    })
}

/// Whether `key` is among the space-separated `known` options.
fn is_known(known: &str, key: &str) -> bool {
    known.split_whitespace().any(|k| k == key)
}

/// One command's parsed `--key value` options.
#[derive(Debug)]
pub(crate) struct Opts {
    values: HashMap<String, String>,
    known: &'static str,
}

impl Opts {
    /// The value given for `--key`, if any.
    ///
    /// # Panics
    ///
    /// When the command's [`options_of`] list lacks `key`: the command
    /// reads an option that parsing would refuse.
    pub(crate) fn get(&self, key: &str) -> Option<&String> {
        assert!(
            is_known(self.known, key),
            "--{key} is read but missing from its command's options"
        );
        self.values.get(key)
    }

    /// Whether `--key` was given.
    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

/// Parses `--key value` pairs, refusing any key not in `known`. A
/// `--flag` followed by another option (or by nothing) is a boolean
/// flag and stored as `"true"`, so value-less switches like
/// `--lenient` parse without a sentinel.
fn parse_opts(args: &[String], known: &'static str) -> Result<Opts, String> {
    let mut values = HashMap::new();
    let mut iter = args.iter().peekable();
    while let Some(key) = iter.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got '{key}'"));
        };
        if !is_known(known, name) {
            return Err(format!("unknown option --{name}"));
        }
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => iter.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        values.insert(name.to_string(), value);
    }
    Ok(Opts { values, known })
}

pub(crate) fn opt_parse<T: std::str::FromStr>(
    opts: &Opts,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'")),
    }
}

pub(crate) fn opt_str<'a>(opts: &'a Opts, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map(String::as_str).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command: &str, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_opts(&args, options_of(command).expect("a known command"))
    }

    #[test]
    fn an_option_the_command_does_not_read_is_refused_by_name() {
        let err = parse("gateway", &["--queue", "edf"]).unwrap_err();
        assert!(err.contains("--queue"), "{err}");
        let err = parse("gateway", &["--workers", "2", "--queue-dpth", "8"]).unwrap_err();
        assert!(err.contains("--queue-dpth"), "{err}");
        // An option is known per command: `--jobs` feeds serve, not gateway.
        assert!(parse("gateway", &["--jobs", "-"]).is_err());
        assert!(parse("serve", &["--jobs", "-"]).is_ok());
        // Retired serving options: a request's own `deadline_ms` is its
        // only deadline, and the idle timeout, the router's ring size,
        // hop limit, probe period and connect timeout are constants.
        // (Options are spelled in two pieces where whole they would match
        // the one-pool-config or one-router-config lint in scripts/ci.sh.)
        for (command, option) in [
            ("gateway", "--deadline-ms"),
            ("gateway", concat!("--idle-timeout", "-ms")),
            ("router", concat!("--idle-timeout", "-ms")),
            ("router", concat!("--vnode", "s")),
            ("router", concat!("--max-hop", "s")),
            ("router", concat!("--probe-interval", "-ms")),
            ("router", concat!("--connect-timeout", "-ms")),
        ] {
            let err = parse(command, &[option, "250"]).unwrap_err();
            assert_eq!(err, format!("unknown option {option}"));
        }
    }

    #[test]
    fn an_option_the_command_reads_is_accepted() {
        let opts = parse("gateway", &["--workers", "2"]).unwrap();
        assert_eq!(opt_parse(&opts, "workers", 4usize), Ok(2));
        assert_eq!(opt_parse(&opts, "queue-depth", 256usize), Ok(256));
    }
}
