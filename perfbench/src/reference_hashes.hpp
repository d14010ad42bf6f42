#pragma once
// Recorded outputs: the final model::state_hash of every operation the
// benchmark can run, keyed by workload and case seed.  Every
// optimisation of this code base is meant to be bitwise-neutral, so a
// changed hash is a correctness failure, not noise.  Regenerate only
// for a deliberate change of the physics or of a workload's
// definition, with `perfbench --record`, and say so in the change.

#include <cstdint>

namespace pb {

/// Case seeds per model workload and job seeds per service class: a
/// run's --seed picks among them, so each output has a recorded hash.
inline constexpr int kCaseSeeds = 8;
inline constexpr std::uint64_t case_seed(int index) {
  return 20240911ull + static_cast<std::uint64_t>(index);
}
inline constexpr std::uint64_t job_seed(int cls, int index) {
  return 7000ull + 100ull * static_cast<std::uint64_t>(cls) +
         static_cast<std::uint64_t>(index);
}

inline constexpr std::uint64_t kConusHashes[kCaseSeeds] = {
    0x875787782c4606f6ull, 0x19a3d19c719a8817ull,
    0xbe48a53766111e33ull, 0xb3920172caa527bdull,
    0xc15f3d6ee6ace6e2ull, 0x46569bddec7e3ceaull,
    0x092741e73b076dc5ull, 0xb81c4dc47f8538c8ull};
inline constexpr std::uint64_t kDecompHashes[kCaseSeeds] = {
    0x637f927816393733ull, 0xb85b4e27153a96deull,
    0x39b3af5e41f61c0cull, 0xfa76e26c35bdbc8aull,
    0xbd15e1df4a755a2full, 0x884c5570d825cb42ull,
    0xaaada91aade54b4eull, 0xa70deb3a0508e7c0ull};
/// Indexed [JobClass][seed index]: interactive, ensemble, batch.
inline constexpr std::uint64_t kServiceHashes[3][kCaseSeeds] = {
    {
        0xecdcd8e973cba890ull, 0xda3d1b9cb1d3b4f0ull,
        0xff69b35e634686aeull, 0x58fa6a530b0c0ec7ull,
        0x505af750600c979dull, 0x164fa5909456593bull,
        0xb5ad0772d4f0299bull, 0x776eb85975ba334bull},
    {
        0x57bf19b3272401e0ull, 0x243370dc671238e8ull,
        0x7e685ddbb6224291ull, 0x13a130a479fec32eull,
        0x0751f2e070d46d85ull, 0x35907205ddc79501ull,
        0xe2cb319d6f809ea6ull, 0xd63ac5e7765804bcull},
    {
        0x8740a8daae494177ull, 0xde50ee5687ac679full,
        0x00059ff44e509881ull, 0x30cb253a2b543a14ull,
        0xdb7522393151b5edull, 0xe26f016b0b9ca7b7ull,
        0x247de575c8c3b3adull, 0x193ee5c69b03de10ull}};

}  // namespace pb
