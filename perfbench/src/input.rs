//! Seeded input fields.
//!
//! Every value is a pure function of `(seed, global index)`, so a rank can
//! generate its own box and the serial references can generate the whole
//! field, and the same seed always gives the same inputs.

use distfft::Box3;
use fftkern::C64;

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform value in `[-1, 1)` for global element `idx` under `seed`.
pub fn unit(seed: u64, idx: u64) -> f64 {
    let bits = mix(mix(seed) ^ idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (bits >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

fn global_index(n: [usize; 3], i: [usize; 3]) -> u64 {
    ((i[0] * n[1] + i[1]) * n[2] + i[2]) as u64
}

/// Visits the global indices of `b` in row-major order.
pub fn for_each_index(b: &Box3, mut f: impl FnMut([usize; 3])) {
    for i0 in b.lo[0]..b.hi[0] {
        for i1 in b.lo[1]..b.hi[1] {
            for i2 in b.lo[2]..b.hi[2] {
                f([i0, i1, i2]);
            }
        }
    }
}

/// The complex field restricted to `b` (row-major over the box).
pub fn complex_box(seed: u64, n: [usize; 3], b: &Box3) -> Vec<C64> {
    let mut out = Vec::with_capacity(b.volume());
    for_each_index(b, |i| {
        let g = 2 * global_index(n, i);
        out.push(C64::new(unit(seed, g), unit(seed, g + 1)));
    });
    out
}

/// The real field restricted to `b` (row-major over the box).
pub fn real_box(seed: u64, n: [usize; 3], b: &Box3) -> Vec<f64> {
    let mut out = Vec::with_capacity(b.volume());
    for_each_index(b, |i| out.push(unit(seed, global_index(n, i))));
    out
}

/// Restricts a global row-major field to `b`.
pub fn restrict<T: Copy>(global: &[T], n: [usize; 3], b: &Box3) -> Vec<T> {
    let mut out = Vec::with_capacity(b.volume());
    for_each_index(b, |i| out.push(global[global_index(n, i) as usize]));
    out
}

/// Writes a box's row-major block into a global field.
pub fn scatter<T: Copy>(global: &mut [T], n: [usize; 3], b: &Box3, block: &[T]) {
    let mut k = 0;
    for_each_index(b, |i| {
        global[global_index(n, i) as usize] = block[k];
        k += 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_field_other_seed_other_field() {
        let n = [4, 4, 4];
        let all = Box3::new([0, 0, 0], n);
        assert_eq!(complex_box(7, n, &all), complex_box(7, n, &all));
        assert_ne!(real_box(7, n, &all), real_box(8, n, &all));
        let sub = Box3::new([1, 0, 2], [3, 4, 4]);
        assert_eq!(
            restrict(&real_box(7, n, &all), n, &sub),
            real_box(7, n, &sub)
        );
        assert!(real_box(7, n, &all).iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
