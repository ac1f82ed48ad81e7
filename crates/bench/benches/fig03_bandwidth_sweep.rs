//! Figure 3: peers observed by 7 floodfill + 7 non-floodfill routers at
//! shared bandwidths from 128 KB/s to 5 MB/s (§4.2).
//!
//! Paper anchors: floodfills win below 2 MB/s, non-floodfills above; the
//! union of each pair stays flat around 17–18 K.

use i2p_measure::population::bandwidth_sweep;
use i2p_measure::report::fig3;

fn main() {
    let mut report = i2p_bench::report("fig03_bandwidth_sweep");
    let world = i2p_bench::world(10);
    report.emit("Figure 3", || {
        let rows = bandwidth_sweep(&world, 2..9);
        fig3(&rows).text()
    });
    report.write();
}
