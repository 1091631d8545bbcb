//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one benchmark workload and prints its metrics (see `NOTES.md`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(gopher_e2ebench::run(&args));
}
