fn main() {
    // Taken first: provenance and every span are relative to it.
    let entered = std::time::Instant::now();
    std::process::exit(litempi_benchmark::cli::main(entered));
}
