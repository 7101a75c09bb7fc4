//! Replay harness for layers that record no span inside the program:
//! the fronthaul eCPRI codec and BFP compression, the FAPI codec, the
//! demapper, the uplink scheduler and LDPC decode. Each public call is
//! timed on inputs shaped like the workload's (its PRB count, fidelity,
//! and the MCS its link adaptation picks); the per-op cost times the op
//! counts the run reports gives the time attributed to the layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use slingshot_fapi::{
    mcs, mcs_for_snr, tbs_bytes, CrcEntry, CrcIndication, DlTtiRequest, FapiMsg, PdschPdu,
    PuschPdu, RxDataIndication, RxTb, SlotIndication, TxDataRequest, UlTtiRequest,
};
use slingshot_fronthaul::{
    compress_symbol_with, decompress_prbs_with, fh_header, CPlaneMsg, CSection, DciEntry, DciMsg,
    Direction, FhMessage, ShadowMsg, UPlaneMsg,
};
use slingshot_phy_dsp::modulation::modulate_packed_into;
use slingshot_phy_dsp::tbchain::segment_sizes;
use slingshot_phy_dsp::{BitBuf, Cplx, DspKernels, LdpcCode, LdpcScratch, SC_PER_PRB};
use slingshot_ran::ru::PRBS_PER_CHUNK;
use slingshot_ran::{CellConfig, Fidelity, Policy, Scheduler};
use slingshot_sim::{SimRng, SlotId};

use crate::spans::SpanLog;
use crate::workload::{Workload, PRBS};

/// Replayed per-operation costs, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Replay {
    pub ldpc_decode_ns: f64,
    pub demap_ns_per_sym: f64,
    pub ul_grant_ns: f64,
    pub bfp_compress_ns_per_prb: f64,
    pub bfp_decompress_ns_per_prb: f64,
    pub fh_encode_ns: f64,
    pub fh_decode_ns: f64,
    pub fapi_encode_ns: f64,
    pub fapi_decode_ns: f64,
    /// Wire bytes one BFP PRB adds to a U-plane message.
    pub bfp_prb_bytes: u64,
    /// Modulation symbols per uplink TB (for attributing demap time).
    pub syms_per_tb: u64,
}

/// Mean nanoseconds per op of `op`, which performs `ops` operations per
/// call; runs for `budget` after one warm-up call (at least 3 calls).
fn time_ops(budget: Duration, ops: usize, mut op: impl FnMut()) -> f64 {
    op();
    let started = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || started.elapsed() < budget {
        op();
        calls += 1;
    }
    started.elapsed().as_nanos() as f64 / (calls * ops as u64) as f64
}

/// The MCS the scheduler's link adaptation picks for each cell's UE.
fn link_mcs(w: Workload) -> Vec<u8> {
    let cell = CellConfig::default();
    (0..w.cells().min(4))
        .map(|c| mcs_for_snr(w.snr_db(c), cell.la_margin_db, cell.fec_iterations))
        .collect()
}

fn gaussian_samples(rng: &mut SimRng, n: usize) -> Vec<Cplx> {
    (0..n)
        .map(|_| Cplx::new(0.3 * rng.gaussian() as f32, 0.3 * rng.gaussian() as f32))
        .collect()
}

fn random_bits(rng: &mut SimRng, n: usize) -> BitBuf {
    let mut b = BitBuf::with_capacity(n);
    for _ in 0..n {
        b.push((rng.next_u64() & 1) as u8);
    }
    b
}

/// Replay every layer for workload `w`, spending about `budget` on each.
pub fn run(w: Workload, seed: u64, budget: Duration, log: &mut SpanLog) -> Replay {
    let kernels = DspKernels::detect();
    let mut rng = SimRng::new(seed ^ 0x5eed_0f4e_91a7);
    let cell = CellConfig::default();
    let mcs_set = link_mcs(w);
    let tb_bytes: Vec<usize> = mcs_set
        .iter()
        .map(|&m| tbs_bytes(m, PRBS, cell.data_symbols))
        .collect();
    // LDPC decode at each code-block size link adaptation produces,
    // with ~4 dB BPSK LLRs so min-sum runs a realistic iteration count.
    let ldpc_decode_ns = log.span("replay.ldpc_decode", 0, || {
        let per_size: Vec<f64> = tb_bytes
            .iter()
            .map(|&tb| {
                let k = segment_sizes((tb + 3) * 8)[0];
                let code = LdpcCode::new(k);
                let mut cw = BitBuf::with_capacity(code.n());
                code.encode_packed(&random_bits(&mut rng, k), &mut cw);
                let sigma2 = 10f32.powf(-0.4);
                let llrs: Vec<f32> = (0..code.n())
                    .map(|i| {
                        let x = if cw.get(i) == 0 { 1.0 } else { -1.0 };
                        2.0 * (x + sigma2.sqrt() * rng.gaussian() as f32) / sigma2
                    })
                    .collect();
                let mut scratch = LdpcScratch::default();
                time_ops(budget / tb_bytes.len() as u32, 1, || {
                    black_box(kernels.ldpc_decode_into(
                        &code,
                        black_box(&llrs),
                        cell.fec_iterations,
                        &mut scratch,
                    ));
                })
            })
            .collect();
        per_size.iter().sum::<f64>() / per_size.len() as f64
    });

    // Max-log demap of one TB's worth of symbols at each cell's MCS.
    let syms_per_tb = PRBS as usize * SC_PER_PRB * cell.data_symbols as usize;
    let demap_ns_per_sym = log.span("replay.demap", 0, || {
        let per_mcs: Vec<f64> = mcs_set
            .iter()
            .zip(0..)
            .map(|(&m, c)| {
                let modulation = mcs(m).modulation;
                let bits = random_bits(&mut rng, syms_per_tb * modulation.bits_per_symbol());
                let mut syms = Vec::new();
                modulate_packed_into(&bits, modulation, &mut syms);
                let noise_var = 10f32.powf(-(w.snr_db(c) as f32) / 10.0);
                let mut llrs = Vec::new();
                time_ops(budget / mcs_set.len() as u32, syms.len(), || {
                    kernels.demodulate_llr_into(black_box(&syms), modulation, noise_var, &mut llrs);
                    black_box(&llrs);
                })
            })
            .collect();
        per_mcs.iter().sum::<f64>() / per_mcs.len() as f64
    });

    // Uplink grants for one UE per replayed cell, acknowledged between
    // batches so HARQ processes free up as they do in a run.
    let ul_grant_ns = log.span("replay.ul_grant", 0, || {
        let mut sched = Scheduler::new(
            Policy::ProportionalFair,
            cell.la_margin_db,
            cell.fec_iterations,
        );
        let ues: Vec<(u16, f64)> = (0..mcs_set.len())
            .map(|c| (100 + c as u16, w.snr_db(c)))
            .collect();
        for &(rnti, snr) in &ues {
            sched.add_ue(rnti, snr);
        }
        let mut total = Duration::ZERO;
        let mut grants = 0usize;
        let mut issued = Vec::new();
        while grants < 64 || total < budget {
            let t = Instant::now();
            for _ in 0..8 {
                for &(rnti, _) in &ues {
                    issued.push((
                        rnti,
                        black_box(sched.ul_grant(rnti, 0, PRBS, cell.data_symbols)),
                    ));
                }
            }
            total += t.elapsed();
            for (rnti, g) in issued.drain(..) {
                let g = g.expect("a free HARQ process after acknowledgements");
                let snr = ues.iter().find(|u| u.0 == rnti).map_or(0.0, |u| u.1);
                sched.on_ul_crc(rnti, g.pdu.harq_id, true, snr);
                grants += 1;
            }
        }
        total.as_nanos() as f64 / grants as f64
    });

    // BFP compression of full-band symbols, one PRB each way.
    let samples = gaussian_samples(&mut rng, PRBS as usize * SC_PER_PRB);
    let prbs = compress_symbol_with(kernels, &samples);
    let bfp_compress_ns_per_prb = log.span("replay.bfp_compress", 0, || {
        time_ops(budget, prbs.len(), || {
            black_box(compress_symbol_with(kernels, black_box(&samples)));
        })
    });
    let bfp_decompress_ns_per_prb = log.span("replay.bfp_decompress", 0, || {
        time_ops(budget, prbs.len(), || {
            black_box(decompress_prbs_with(kernels, black_box(&prbs)));
        })
    });

    // Fronthaul message mix of one uplink TTI: C-plane, DCI, and either
    // compressed IQ chunks (Full) or a shadow payload (Sampled/Abstract).
    let slot = SlotId::from_absolute(4);
    let hdr = |dir| fh_header(dir, slot, 0, 0);
    let chunk = |n: usize| {
        FhMessage::UPlane(UPlaneMsg {
            hdr: hdr(Direction::Uplink),
            start_prb: 0,
            prbs: prbs[..n].to_vec(),
        })
    };
    let bfp_prb_bytes = (chunk(2).to_bytes().len() - chunk(1).to_bytes().len()) as u64;
    let mut fh_mix = vec![
        FhMessage::CPlane(CPlaneMsg {
            hdr: hdr(Direction::Downlink),
            sections: vec![CSection {
                section_id: 1,
                start_prb: 0,
                num_prb: PRBS,
                beam_id: 0,
            }],
        }),
        FhMessage::Dci(DciMsg {
            hdr: hdr(Direction::Downlink),
            entries: vec![DciEntry {
                rnti: 100,
                uplink: true,
                target_slot_scalar: 4,
                harq_id: 0,
                ndi: true,
                rv: 0,
                mcs: mcs_set[0],
                start_prb: 0,
                num_prb: PRBS,
                tb_bytes: tb_bytes[0] as u32,
            }],
        }),
    ];
    if w.fidelity() == Fidelity::Full {
        let mut left = prbs.len();
        while left > 0 {
            let n = left.min(PRBS_PER_CHUNK);
            fh_mix.push(chunk(n));
            left -= n;
        }
    } else {
        fh_mix.push(FhMessage::Shadow(ShadowMsg {
            hdr: hdr(Direction::Uplink),
            rnti: 100,
            snr_db_x100: (w.snr_db(0) * 100.0) as i32,
            data: Bytes::from(vec![0x5a; tb_bytes[0]]),
        }));
    }
    let fh_wire: Vec<Bytes> = fh_mix.iter().map(FhMessage::to_bytes).collect();
    let fh_encode_ns = log.span("replay.fh_encode", 0, || {
        time_ops(budget, fh_mix.len(), || {
            for m in &fh_mix {
                black_box(m.to_bytes());
            }
        })
    });
    let fh_decode_ns = log.span("replay.fh_decode", 0, || {
        time_ops(budget, fh_wire.len(), || {
            for b in &fh_wire {
                black_box(FhMessage::from_bytes(black_box(b)));
            }
        })
    });

    // FAPI mix of one DDDSU cycle for one cell: a slot indication and
    // DL/UL TTI requests every slot, one PUSCH with its CRC and RX_Data
    // indications, and TX_Data on DL slots when the workload carries
    // downlink traffic.
    let fapi_mix = fapi_cycle(w, mcs_set[0], tb_bytes[0]);
    let fapi_wire: Vec<Bytes> = fapi_mix.iter().map(slingshot_fapi::encode).collect();
    let fapi_encode_ns = log.span("replay.fapi_encode", 0, || {
        time_ops(budget, fapi_mix.len(), || {
            for m in &fapi_mix {
                black_box(slingshot_fapi::encode(black_box(m)));
            }
        })
    });
    let fapi_decode_ns = log.span("replay.fapi_decode", 0, || {
        time_ops(budget, fapi_wire.len(), || {
            for b in &fapi_wire {
                black_box(slingshot_fapi::decode(black_box(b)));
            }
        })
    });
    Replay {
        ldpc_decode_ns,
        demap_ns_per_sym,
        ul_grant_ns,
        bfp_compress_ns_per_prb,
        bfp_decompress_ns_per_prb,
        fh_encode_ns,
        fh_decode_ns,
        fapi_encode_ns,
        fapi_decode_ns,
        bfp_prb_bytes,
        syms_per_tb: syms_per_tb as u64,
    }
}

fn fapi_cycle(w: Workload, mcs: u8, tb_bytes: usize) -> Vec<FapiMsg> {
    let mut mix = Vec::new();
    for abs in 0..5u64 {
        let slot = SlotId::from_absolute(abs);
        let uplink = abs == 4;
        let dl_data = !uplink && w.dl_flow().is_some();
        mix.push(FapiMsg::SlotInd(SlotIndication { ru_id: 0, slot }));
        let mut dl = DlTtiRequest::null(0, slot);
        if dl_data {
            dl.pdsch.push(PdschPdu {
                rnti: 100,
                harq_id: abs as u8,
                ndi: true,
                rv: 0,
                mcs,
                start_prb: 0,
                num_prb: PRBS,
                tb_bytes: tb_bytes as u32,
            });
            mix.push(FapiMsg::TxData(TxDataRequest {
                ru_id: 0,
                slot,
                tbs: vec![(100, Bytes::from(vec![0xa5; tb_bytes]))],
            }));
        }
        mix.push(FapiMsg::DlTti(dl));
        let mut ul = UlTtiRequest::null(0, slot);
        if uplink {
            ul.pusch.push(PuschPdu {
                rnti: 100,
                harq_id: 0,
                ndi: true,
                rv: 0,
                mcs,
                start_prb: 0,
                num_prb: PRBS,
                tb_bytes: tb_bytes as u32,
            });
            mix.push(FapiMsg::CrcInd(CrcIndication {
                ru_id: 0,
                slot,
                crcs: vec![CrcEntry {
                    rnti: 100,
                    harq_id: 0,
                    ok: true,
                    snr_x10: 220,
                }],
            }));
            mix.push(FapiMsg::RxData(RxDataIndication {
                ru_id: 0,
                slot,
                tbs: vec![RxTb {
                    rnti: 100,
                    harq_id: 0,
                    payload: Bytes::from(vec![0x3c; tb_bytes]),
                }],
            }));
        }
        mix.push(FapiMsg::UlTti(ul));
    }
    mix
}
