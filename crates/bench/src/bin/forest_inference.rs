//! Forest-inference micro-bench: scalar pointer walk vs flat arena.

fn main() {
    smartflux_bench::exp::forest_inference::run();
}
