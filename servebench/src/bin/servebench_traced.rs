//! Traced run: the counting allocator plus the outside-in per-layer ledger.

#[global_allocator]
static ALLOC: zstream_servebench::counting::CountingAlloc =
    zstream_servebench::counting::CountingAlloc;

fn main() -> std::process::ExitCode {
    zstream_servebench::main(true)
}
