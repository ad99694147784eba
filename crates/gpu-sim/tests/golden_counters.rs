//! Pinned counters: a fixed kernel mix whose every `Counters` field and
//! every modeled-time component is asserted against values recorded from
//! the simulator before its per-instruction bookkeeping was rewritten for
//! host speed. Any change to coalescing, cache replacement, bank-conflict
//! or atomic accounting that moves a single event shows up here as a
//! named field.
//!
//! The mix covers each accounting path: coalesced, strided and gathered
//! global loads (with predicated-off lanes and a partial trailing warp),
//! texture loads, u32 loads, f64 and u32 stores, same-address f64 atomics,
//! `atomic_fetch_add_u32` scatter cursors, and shared-memory loads, stores
//! and atomics with bank conflicts. It runs on the GTX Titan and on the
//! tiny test device, whose small caches force evictions, and launches
//! twice per device so the second launch sees warm caches.

use fusedml_gpu_sim::{Counters, DeviceSpec, Gpu, LaunchConfig, LaunchStats, TimeBreakdown};

/// Deterministic lane scrambler for the gather pattern.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_mix(spec: DeviceSpec) -> Vec<LaunchStats> {
    let g = Gpu::with_host_threads(spec, 1);
    let n = 12_288usize;
    let x = g.upload_f64(
        "x",
        &(0..n).map(|i| (i % 101) as f64 * 0.25).collect::<Vec<_>>(),
    );
    let y = g.upload_f64(
        "y",
        &(0..n).map(|i| 1.0 + (i % 7) as f64).collect::<Vec<_>>(),
    );
    let idx = g.upload_u32(
        "idx",
        &(0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % n as u32)
            .collect::<Vec<_>>(),
    );
    let out = g.alloc_f64("out", n);
    let acc = g.alloc_f64("acc", 64);
    let cursor = g.alloc_u32("cursor", 16);
    let slots = g.alloc_u32("slots", n);
    // 20 blocks on 14 (or 2) SMs: the round-robin wraps. 80 threads: the
    // third warp runs 16 of 32 lanes.
    let cfg = LaunchConfig::new(20, 80).with_shared_bytes(34 * 32 * 8);
    let mut launches = Vec::new();
    for _ in 0..2 {
        launches.push(g.launch("golden_mix", cfg, |blk| {
            let tile = blk.shared_f64(32 * 32);
            let red = blk.shared_f64(64);
            blk.each_warp(|w| {
                let gt = w.gtid(0);
                // Coalesced.
                let a = w.load_f64(&x, |l| Some((gt + l) % n));
                // Strided: one sector per lane.
                let b = w.load_f64(&x, |l| Some(((gt + l) * 17) % n));
                // Gather with predicated-off and duplicate lanes.
                let c = w.load_f64(&x, |l| {
                    let h = mix64((gt + l) as u64);
                    (h & 3 != 0).then_some((h >> 8) as usize % (n / 4))
                });
                // Texture: half-warp broadcast, half coalesced.
                let t = w.load_f64_tex(&y, |l| Some(if l < 16 { gt % n } else { (gt + l) % n }));
                let ix = w.load_u32(&idx, |l| Some((gt * 3 + l) % n));
                w.flops(64);
                w.store_f64(&out, |l| {
                    Some(((ix[l] as usize) % n, a[l] + b[l] * c[l] + t[l]))
                });
                w.store_f64(&out, |l| (l % 3 != 0).then_some(((gt + l * 9) % n, a[l])));
                // Same-address f64 atomics, then four hot addresses.
                w.atomic_add_f64(&acc, |l| Some((0, a[l])));
                w.atomic_add_f64(&acc, |l| (l != 5).then_some((l % 4 + 8 * (gt % 3), b[l])));
                // Scatter cursors: fetch-add tickets pick the store slots.
                let tickets =
                    w.atomic_fetch_add_u32(&cursor, |l| Some((l % 8, 1 + (l as u32 & 1))));
                w.store_u32(&slots, |l| {
                    Some(((tickets[l] as usize * 16 + l) % n, ix[l]))
                });
                // Shared memory: conflict-free, stride-2, stride-32 column
                // reads, broadcast, and same-word atomics.
                w.shared_store(tile, |l| Some((l, l as f64)));
                w.shared_store(tile, |l| Some(((l * 2) % 1024, c[l])));
                let wid = w.warp_id();
                let s = w.shared_load(tile, |l| Some((l * 32 + wid) % 1024));
                let bcast = w.shared_load(red, |_| Some(3));
                let mut v = [0.0; 32];
                for l in 0..32 {
                    v[l] = s[l] + bcast[l];
                }
                w.shuffle_reduce_sum(&mut v, 32);
                w.shared_atomic_add(red, |l| (l % 5 != 0).then_some(((l * 4) % 64, v[l])));
                w.shared_atomic_add(red, |l| Some((l % 2, 1.0)));
            });
            blk.sync();
        }));
    }
    launches
}

/// Every `Counters` field by name (the destructuring fails to compile if a
/// field is added without being pinned here), the sampled atomic-address
/// histogram, and the bits of every `TimeBreakdown` component.
fn flatten(s: &LaunchStats) -> Vec<(String, u64)> {
    let Counters {
        gld_instructions,
        gld_transactions,
        gst_instructions,
        gst_transactions,
        dram_read_bytes,
        dram_write_bytes,
        l2_read_bytes,
        tex_read_bytes,
        tex_transactions,
        global_atomics,
        global_atomics_int,
        global_atomic_warp_conflicts,
        shared_accesses,
        shared_atomics,
        shared_bank_conflicts,
        shuffle_instructions,
        divergent_instructions,
        inactive_lanes,
        flops,
        barriers,
        kernel_launches,
        atomic_addr_samples,
    } = &s.counters;
    let TimeBreakdown {
        launch_ms,
        dram_ms,
        l2_ms,
        compute_ms,
        shared_ms,
        atomic_throughput_ms,
        atomic_serial_ms,
        total_ms,
    } = &s.time;
    let mut v: Vec<(String, u64)> = [
        ("gld_instructions", *gld_instructions),
        ("gld_transactions", *gld_transactions),
        ("gst_instructions", *gst_instructions),
        ("gst_transactions", *gst_transactions),
        ("dram_read_bytes", *dram_read_bytes),
        ("dram_write_bytes", *dram_write_bytes),
        ("l2_read_bytes", *l2_read_bytes),
        ("tex_read_bytes", *tex_read_bytes),
        ("tex_transactions", *tex_transactions),
        ("global_atomics", *global_atomics),
        ("global_atomics_int", *global_atomics_int),
        (
            "global_atomic_warp_conflicts",
            *global_atomic_warp_conflicts,
        ),
        ("shared_accesses", *shared_accesses),
        ("shared_atomics", *shared_atomics),
        ("shared_bank_conflicts", *shared_bank_conflicts),
        ("shuffle_instructions", *shuffle_instructions),
        ("divergent_instructions", *divergent_instructions),
        ("inactive_lanes", *inactive_lanes),
        ("flops", *flops),
        ("barriers", *barriers),
        ("kernel_launches", *kernel_launches),
        ("atomic_addr_samples.len", atomic_addr_samples.len() as u64),
        (
            "atomic_addr_samples.sum",
            atomic_addr_samples.values().map(|&c| u64::from(c)).sum(),
        ),
        ("time.launch_ms", launch_ms.to_bits()),
        ("time.dram_ms", dram_ms.to_bits()),
        ("time.l2_ms", l2_ms.to_bits()),
        ("time.compute_ms", compute_ms.to_bits()),
        ("time.shared_ms", shared_ms.to_bits()),
        ("time.atomic_throughput_ms", atomic_throughput_ms.to_bits()),
        ("time.atomic_serial_ms", atomic_serial_ms.to_bits()),
        ("time.total_ms", total_ms.to_bits()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    v.extend(
        atomic_addr_samples
            .iter()
            .map(|(a, c)| (format!("sample@{a:#x}"), u64::from(*c))),
    );
    v
}

fn check(device: &str, spec: DeviceSpec, expected: &[&[(&str, u64)]]) {
    let got: Vec<Vec<(String, u64)>> = run_mix(spec).iter().map(flatten).collect();
    let mut dump = String::new();
    for (i, launch) in got.iter().enumerate() {
        dump += &format!("    // launch {i}\n    &[\n");
        for (k, v) in launch {
            if k.starts_with("time.") {
                dump += &format!("        (\"{k}\", {v:#018x}),\n");
            } else {
                dump += &format!("        (\"{k}\", {v}),\n");
            }
        }
        dump += "    ],\n";
    }
    assert_eq!(got.len(), expected.len(), "{device}: launches\n{dump}");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(g.len(), e.len(), "{device} launch {i}: field count\n{dump}");
        for ((gk, gv), (ek, ev)) in g.iter().zip(e.iter()) {
            assert_eq!(
                (gk.as_str(), *gv),
                (*ek, *ev),
                "{device} launch {i}\n{dump}"
            );
        }
    }
}

#[test]
fn gtx_titan_mix_matches_pinned_counters() {
    check(
        "gtx_titan",
        DeviceSpec::gtx_titan(),
        &[
            // launch 0
            &[
                ("gld_instructions", 300),
                ("gld_transactions", 3385),
                ("gst_instructions", 180),
                ("gst_transactions", 3039),
                ("dram_read_bytes", 330816),
                ("dram_write_bytes", 122208),
                ("l2_read_bytes", 17216),
                ("tex_read_bytes", 0),
                ("tex_transactions", 220),
                ("global_atomics", 3140),
                ("global_atomics_int", 1600),
                ("global_atomic_warp_conflicts", 3960),
                ("shared_accesses", 6400),
                ("shared_atomics", 2840),
                ("shared_bank_conflicts", 3480),
                ("shuffle_instructions", 300),
                ("divergent_instructions", 140),
                ("inactive_lanes", 2001),
                ("flops", 11840),
                ("barriers", 20),
                ("kernel_launches", 1),
                ("atomic_addr_samples.len", 13),
                ("atomic_addr_samples.sum", 140),
                ("time.launch_ms", 0x3f747ae147ae147b),
                ("time.dram_ms", 0x3f880dcc29c808d1),
                ("time.l2_ms", 0x3f2c14d22104d0f6),
                ("time.compute_ms", 0x3f11d3ad9605d6de),
                ("time.shared_ms", 0x3f31a45ddb5ebc10),
                ("time.atomic_throughput_ms", 0x3f658484edc95502),
                ("time.atomic_serial_ms", 0x3fc8dcdb37c99ae9),
                ("time.total_ms", 0x3fc980b242070b8d),
                ("sample@0x55000", 26),
                ("sample@0x55008", 7),
                ("sample@0x55010", 5),
                ("sample@0x55048", 6),
                ("sample@0x55050", 5),
                ("sample@0x55088", 7),
                ("sample@0x55090", 4),
                ("sample@0x55200", 6),
                ("sample@0x55204", 14),
                ("sample@0x5520c", 28),
                ("sample@0x55210", 14),
                ("sample@0x55214", 6),
                ("sample@0x5521c", 12),
            ],
            // launch 1
            &[
                ("gld_instructions", 300),
                ("gld_transactions", 3385),
                ("gst_instructions", 180),
                ("gst_transactions", 3040),
                ("dram_read_bytes", 0),
                ("dram_write_bytes", 122240),
                ("l2_read_bytes", 108320),
                ("tex_read_bytes", 7040),
                ("tex_transactions", 220),
                ("global_atomics", 3140),
                ("global_atomics_int", 1600),
                ("global_atomic_warp_conflicts", 3960),
                ("shared_accesses", 6400),
                ("shared_atomics", 2840),
                ("shared_bank_conflicts", 3480),
                ("shuffle_instructions", 300),
                ("divergent_instructions", 140),
                ("inactive_lanes", 2001),
                ("flops", 11840),
                ("barriers", 20),
                ("kernel_launches", 1),
                ("atomic_addr_samples.len", 14),
                ("atomic_addr_samples.sum", 146),
                ("time.launch_ms", 0x3f747ae147ae147b),
                ("time.dram_ms", 0x3f69f6435735f831),
                ("time.l2_ms", 0x3f5615d8e3d79836),
                ("time.compute_ms", 0x3f11d3ad9605d6de),
                ("time.shared_ms", 0x3f31a45ddb5ebc10),
                ("time.atomic_throughput_ms", 0x3f658484edc95502),
                ("time.atomic_serial_ms", 0x3fcd7342edbb59dd),
                ("time.total_ms", 0x3fce1719f7f8ca81),
                ("sample@0x55000", 56),
                ("sample@0x55008", 5),
                ("sample@0x55018", 2),
                ("sample@0x55040", 4),
                ("sample@0x55048", 5),
                ("sample@0x55058", 2),
                ("sample@0x55080", 4),
                ("sample@0x55088", 4),
                ("sample@0x55098", 2),
                ("sample@0x55200", 8),
                ("sample@0x55204", 6),
                ("sample@0x5520c", 12),
                ("sample@0x55214", 14),
                ("sample@0x5521c", 22),
            ],
        ],
    );
}

#[test]
fn tiny_device_mix_matches_pinned_counters() {
    check(
        "tiny_test_device",
        DeviceSpec::tiny_test_device(),
        &[
            // launch 0
            &[
                ("gld_instructions", 300),
                ("gld_transactions", 3385),
                ("gst_instructions", 180),
                ("gst_transactions", 3039),
                ("dram_read_bytes", 265920),
                ("dram_write_bytes", 122208),
                ("l2_read_bytes", 37120),
                ("tex_read_bytes", 0),
                ("tex_transactions", 220),
                ("global_atomics", 3140),
                ("global_atomics_int", 1600),
                ("global_atomic_warp_conflicts", 3960),
                ("shared_accesses", 6400),
                ("shared_atomics", 2840),
                ("shared_bank_conflicts", 3480),
                ("shuffle_instructions", 300),
                ("divergent_instructions", 140),
                ("inactive_lanes", 2001),
                ("flops", 11840),
                ("barriers", 20),
                ("kernel_launches", 1),
                ("atomic_addr_samples.len", 19),
                ("atomic_addr_samples.sum", 146),
                ("time.launch_ms", 0x3f747ae147ae147b),
                ("time.dram_ms", 0x3f8d70b2c0c9e8bd),
                ("time.l2_ms", 0x3f459fbc51fb8d33),
                ("time.compute_ms", 0x3f19778a44085786),
                ("time.shared_ms", 0x3f5edfa43fe5c91d),
                ("time.atomic_throughput_ms", 0x3f658484edc95502),
                ("time.atomic_serial_ms", 0x3fce44fa05143bf7),
                ("time.total_ms", 0x3fcee8d10f51ac9b),
                ("sample@0x55000", 61),
                ("sample@0x55008", 4),
                ("sample@0x55010", 2),
                ("sample@0x55018", 5),
                ("sample@0x55040", 2),
                ("sample@0x55048", 4),
                ("sample@0x55050", 3),
                ("sample@0x55058", 6),
                ("sample@0x55080", 3),
                ("sample@0x55088", 4),
                ("sample@0x55090", 1),
                ("sample@0x55098", 5),
                ("sample@0x55200", 6),
                ("sample@0x55204", 8),
                ("sample@0x55208", 2),
                ("sample@0x5520c", 10),
                ("sample@0x55210", 6),
                ("sample@0x55214", 8),
                ("sample@0x5521c", 6),
            ],
            // launch 1
            &[
                ("gld_instructions", 300),
                ("gld_transactions", 3385),
                ("gst_instructions", 180),
                ("gst_transactions", 3040),
                ("dram_read_bytes", 240000),
                ("dram_write_bytes", 122240),
                ("l2_read_bytes", 43808),
                ("tex_read_bytes", 1024),
                ("tex_transactions", 220),
                ("global_atomics", 3140),
                ("global_atomics_int", 1600),
                ("global_atomic_warp_conflicts", 3960),
                ("shared_accesses", 6400),
                ("shared_atomics", 2840),
                ("shared_bank_conflicts", 3480),
                ("shuffle_instructions", 300),
                ("divergent_instructions", 140),
                ("inactive_lanes", 2001),
                ("flops", 11840),
                ("barriers", 20),
                ("kernel_launches", 1),
                ("atomic_addr_samples.len", 20),
                ("atomic_addr_samples.sum", 150),
                ("time.launch_ms", 0x3f747ae147ae147b),
                ("time.dram_ms", 0x3f8b7a00ce9bba14),
                ("time.l2_ms", 0x3f49851f5a9306a3),
                ("time.compute_ms", 0x3f19778a44085786),
                ("time.shared_ms", 0x3f5edfa43fe5c91d),
                ("time.atomic_throughput_ms", 0x3f658484edc95502),
                ("time.atomic_serial_ms", 0x3fcc4da9003eea20),
                ("time.total_ms", 0x3fccf1800a7c5ac4),
                ("sample@0x55000", 49),
                ("sample@0x55008", 5),
                ("sample@0x55010", 6),
                ("sample@0x55018", 2),
                ("sample@0x55040", 4),
                ("sample@0x55048", 4),
                ("sample@0x55050", 7),
                ("sample@0x55058", 2),
                ("sample@0x55080", 5),
                ("sample@0x55088", 5),
                ("sample@0x55090", 7),
                ("sample@0x55098", 4),
                ("sample@0x55200", 6),
                ("sample@0x55204", 2),
                ("sample@0x55208", 10),
                ("sample@0x5520c", 6),
                ("sample@0x55210", 6),
                ("sample@0x55214", 2),
                ("sample@0x55218", 12),
                ("sample@0x5521c", 6),
            ],
        ],
    );
}
