//! Command-line entry point; see `README.md` next to `Cargo.toml`.

use ickp_ckptbench::{run, Options, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("ckptbench: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&opts);
    for line in &report.header {
        println!("{line}");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
