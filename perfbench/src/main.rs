//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the environment stamp, the checks and every metric by name with
//! its unit, then — as the last line — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 2 without a result line when
//! the run cannot be carried out.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = perfbench::Args::parse(&argv).and_then(|args| {
        println!(
            "perfbench: workload {} seed {} seconds {} trace {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        perfbench::run(&args)
    });
    match outcome {
        Ok(out) => {
            for note in &out.notes {
                println!("# {note}");
            }
            for m in &out.metrics {
                println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
