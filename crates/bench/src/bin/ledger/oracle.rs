//! The reports `pb` must print, computed independently of the code under
//! measurement: every packet runs on the reference interpreter
//! (`npconform::RefCpu`) through `PacketBench::process_packet_via`, is
//! checked against the application's golden model, and is folded and
//! rendered exactly as `pb run` does.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use nettrace::pcap::PcapReader;
use nettrace::Packet;
use npconform::RefCpu;
use npsim::RunConfig;
use packetbench::analysis::StreamAggregate;
use packetbench::report::render_aggregate_report;
use packetbench::{App, AppId, PacketBench, PacketRecord, WorkloadConfig};

/// Reads the first `n` packets of a pcap file.
pub fn read_pcap(path: &Path, n: usize) -> Result<Vec<Packet>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    PcapReader::new(BufReader::new(file))
        .map_err(|e| e.to_string())?
        .take(n)
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

/// The stdout of `pb` for `app` over each prefix length in `prefixes`
/// (ascending) of `pcap`, in the same order.
pub fn reports(app: AppId, pcap: &Path, prefixes: &[usize]) -> Result<Vec<String>, String> {
    let config = WorkloadConfig::default();
    let built = App::build(app, &config).map_err(|e| e.to_string())?;
    let program = built.image().program().clone();
    let mut interp = RefCpu::new(&program, built.map()).map_err(|e| e.to_string())?;
    let mut bench = PacketBench::with_config(built, &config).map_err(|e| e.to_string())?;
    let longest = prefixes.iter().copied().max().unwrap_or(0);
    let file = File::open(pcap).map_err(|e| format!("{}: {e}", pcap.display()))?;
    let reader = PcapReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
    let mut aggregate = StreamAggregate::new();
    let mut record = PacketRecord::empty();
    let mut out = Vec::with_capacity(prefixes.len());
    for (i, packet) in reader.take(longest).enumerate() {
        let packet = packet.map_err(|e| e.to_string())?;
        bench
            .process_packet_via(&mut interp, &packet, &RunConfig::default(), &mut record)
            .map_err(|e| format!("reference run of packet {i}: {e}"))?;
        bench
            .verify_record(&packet, &record)
            .map_err(|e| format!("golden model, packet {i}: {e}"))?;
        aggregate.add_record(&record);
        while out.len() < prefixes.len() && prefixes[out.len()] == i + 1 {
            out.push(render_aggregate_report(app, &aggregate, false, false));
        }
    }
    if out.len() != prefixes.len() {
        return Err(format!(
            "{} holds fewer than {longest} packets",
            pcap.display()
        ));
    }
    Ok(out)
}

/// Reference reports for every (application, prefix length) a workload
/// needs.
pub struct References(Vec<(AppId, usize, String)>);

impl References {
    /// One reference pass per application over `pcap`, snapshotting the
    /// report at each of the requested prefix lengths.
    pub fn build(wanted: &[(AppId, Vec<usize>)], pcap: &Path) -> Result<References, String> {
        let mut all = Vec::new();
        for (app, prefixes) in wanted {
            let mut prefixes = prefixes.clone();
            prefixes.sort_unstable();
            prefixes.dedup();
            for (n, report) in prefixes.iter().zip(reports(*app, pcap, &prefixes)?) {
                all.push((*app, *n, report));
            }
        }
        Ok(References(all))
    }

    pub fn get(&self, app: AppId, packets: usize) -> Option<&str> {
        self.0
            .iter()
            .find(|(a, n, _)| *a == app && *n == packets)
            .map(|(_, _, report)| report.as_str())
    }
}
