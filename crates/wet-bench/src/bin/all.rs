//! Runs every experiment in EXPERIMENTS.md order. Takes no arguments;
//! scales come from the `WET_*` environment variables.
use wet_bench::experiments as ex;
fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: `all` takes no arguments (got `{arg}`); set scales with WET_* variables");
        std::process::exit(2);
    }
    let scale = wet_bench::Scale::from_env();
    println!("WET reproduction — full experiment run");
    println!("scales: tables {} stmts, timing {} stmts, fig9 base {}, {} thread(s)\n",
        scale.table_stmts, scale.timing_stmts, scale.fig9_base, scale.effective_threads());
    ex::table1(&scale);
    ex::table2_and_3(&scale);
    ex::table4(&scale);
    ex::table5(&scale);
    ex::table6(&scale);
    ex::table7(&scale);
    ex::table8(&scale);
    ex::table9(&scale);
    ex::fig2(&scale);
    ex::fig8(&scale);
    ex::fig9(&scale);
    ex::ablation(&scale);
}
