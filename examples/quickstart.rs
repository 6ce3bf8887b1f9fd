//! Quickstart: collect one loop-counting trace of a website load and
//! print it.
//!
//! ```sh
//! cargo run --release --example quickstart [hostname]
//! ```

use bigger_fish::attack::LoopCountingAttacker;
use bigger_fish::core::FigureSeries;
use bigger_fish::sim::{Machine, MachineConfig};
use bigger_fish::timer::{BrowserKind, Nanos};
use bigger_fish::victim::WebsiteProfile;

fn main() {
    let host = std::env::args().nth(1).unwrap_or_else(|| "nytimes.com".to_owned());
    let browser = BrowserKind::Chrome;
    let period = Nanos::from_millis(5);

    println!("victim loads {host} for 15s; attacker runs a loop-counting service worker\n");

    // 1. The victim's browser loads the site, generating interrupts.
    let site = WebsiteProfile::for_hostname(&host);
    let workload = site.generate(browser.trace_duration(), 0);
    println!(
        "workload: {} events (packets, wakes, TLB shootdowns, frames, ...)",
        workload.len()
    );

    // 2. The machine turns activity into per-core execution gaps.
    let machine = Machine::new(MachineConfig::default());
    let sim = machine.run(&workload, 0);
    println!(
        "simulation: {} kernel events, {} gaps on the attacker core",
        sim.kernel_log().len(),
        sim.attacker_timeline().gaps().len()
    );

    // 3. The attacker counts loop iterations per 5 ms period through
    //    Chrome's jittered 0.1 ms timer.
    let attacker = LoopCountingAttacker::for_browser(browser, period);
    let mut timer = browser.timer(0);
    let trace = attacker.collect(&sim, &mut timer);

    let series = FigureSeries::new(host.clone(), trace.values().to_vec());
    println!("\ntrace ({} periods of {period}):", trace.len());
    println!("{series}");
    println!(
        "\nmax count {:.0} per period (paper: ~27,000); dips mark page-load activity",
        trace.max()
    );
    println!("darker regions in the paper's Fig. 3 = the low stretches above");
}
