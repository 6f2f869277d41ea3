//! End-to-end run: the system allocator, no instrumentation.

fn main() -> std::process::ExitCode {
    zstream_servebench::main(false)
}
