//! The benchmark's one command. See `../../README.md`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(csaw_benchmark::cli::main_with(&args));
}
