#![deny(clippy::unwrap_used, clippy::expect_used)]
//! Design-choice ablations (paper §4.2.4 and §4.6). Takes no arguments.
fn main() {
    sm_bench::cli::checked_args("ablation", "usage: ablation", &[], &[]);
    println!("Ablations — §4.2.4 I-TLB loader and §4.6 cost anatomy\n");
    let itlb = sm_bench::ablation::itlb_loader(60);
    let sens = sm_bench::ablation::trap_cost_sensitivity(60);
    let soft = sm_bench::ablation::softtlb_port(60);
    println!("{}", sm_bench::ablation::render_all(&itlb, &sens, &soft));
}
