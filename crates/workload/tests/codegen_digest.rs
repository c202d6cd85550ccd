//! Pins the generated workload code: any byte that codegen or the
//! assembler emits differently fails here, at its source, instead of
//! surfacing later as a measurement diff.

use vax_workload::rte::{shard_processes, PROCESSES_PER_WORKLOAD};
use vax_workload::Workload;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
}

/// The digest of `shard_processes` for every workload at three seeds:
/// each process's origin, entry address, bytes, and labels sorted by name.
fn codegen_digest() -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for seed in [1, 1984, 0x5EED_F00D] {
        for w in Workload::ALL {
            for spec in shard_processes(w, PROCESSES_PER_WORKLOAD, seed) {
                let img = &spec.image;
                h.write_u32(img.origin);
                h.write_u32(img.addr_of(&spec.entry));
                h.write_u32(img.bytes.len() as u32);
                h.write(&img.bytes);
                let mut labels: Vec<_> = img.labels.iter().collect();
                labels.sort();
                for (name, &addr) in labels {
                    h.write(name.as_bytes());
                    h.write(&[0]);
                    h.write_u32(addr);
                }
            }
        }
    }
    h.0
}

/// The recorded digest. Generated code feeds every measurement, so it may
/// change only on purpose, re-recorded together with the fixtures it moves.
const RECORDED: u64 = 0x140E_F3A8_402A_2DE0;

#[test]
fn generated_code_is_byte_identical_to_the_recorded_digest() {
    assert_eq!(
        codegen_digest(),
        RECORDED,
        "codegen output drifted from the recorded bytes"
    );
}
