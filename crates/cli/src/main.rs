//! The `neats` command-line tool. See [`neats_cli`] for the implementation
//! and `neats --help` / [`neats_cli::usage`] for usage.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", neats_cli::usage());
        return;
    }
    let cmd = match neats_cli::parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = neats_cli::run(cmd, &mut stdout) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
