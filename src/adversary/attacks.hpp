// Adversary model (Sec. III-B) and the attacks analysed in Sec. V.
//
// The adversary fully controls ell malicious node identifiers and may insert
// them anywhere in any correct node's input stream, arbitrarily often.  Its
// cost model is the number of DISTINCT identifiers it must own (each forged
// identity requires a certificate from the central authority — the Sybil
// cost), not the number of injections.  SybilBudget accounts for that.
//
// Three attack shapes drive the evaluation:
//  * peak attack      — one id injected overwhelmingly often (Fig. 7a);
//                       built from peak_attack_counts + exact_stream
//                       (stream/generators.hpp);
//  * targeted attack  — L_{k,s} distinct ids aimed at colliding with one
//                       victim id in every Count-Min row (Sec. V-A);
//  * flooding attack  — E_k distinct ids covering every sketch counter so
//                       ALL frequency estimates inflate (Sec. V-B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stream/types.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Accounts for the adversary's identity-creation cost: the number of
/// distinct forged identifiers used.  The analyses of Sec. V lower-bound
/// exactly this quantity (L_{k,s} and E_k).
class SybilBudget {
 public:
  /// Reserves `count` fresh malicious ids, disjoint from [0, first_id).
  /// Typically first_id = n so forged ids never collide with real ones.
  SybilBudget(NodeId first_id, std::size_t count);

  std::span<const NodeId> ids() const { return ids_; }
  std::size_t distinct_ids() const { return ids_.size(); }

 private:
  std::vector<NodeId> ids_;
};

/// A composed attack stream: the legitimate base counts plus malicious
/// injections, shuffled.  Keeps the pieces separately so experiments can
/// compute per-population (correct vs malicious) output frequencies.
struct AttackStream {
  Stream stream;                       ///< full interleaved input stream
  std::vector<NodeId> malicious_ids;   ///< ids owned by the adversary
  std::uint64_t injected = 0;          ///< total malicious occurrences
};

/// Generalized composition primitive behind every synthetic attack stream:
/// the legitimate base counts plus `injections[i]` occurrences of
/// `malicious_ids[i]`, interleaved by a seeded Fisher-Yates shuffle.  The
/// pre-shuffle layout is base-id-major then malicious-id-major and the
/// shuffle consumes the same RNG sequence as the uniform-repetition
/// attacks below, so uniform `injections` reproduce make_targeted_attack /
/// make_flooding_attack bit-identically — the anchor the adaptive
/// strategies (adversary/adaptive.hpp) are differential-tested against.
AttackStream compose_attack_stream(std::span<const std::uint64_t> base_counts,
                                   std::span<const NodeId> malicious_ids,
                                   std::span<const std::uint64_t> injections,
                                   std::uint64_t seed);

/// Targeted attack: the adversary owns `distinct_ids` forged ids (its
/// estimate of L_{k,s}) and injects each `repetitions` times, aiming to
/// inflate the Count-Min estimate of every id colliding with them — in
/// particular the victim.  The victim is a legitimate id in base_counts;
/// the adversary cannot choose which counters its ids map to (hash coins
/// are private), so it can only play volume — exactly the model of Sec. V-A.
AttackStream make_targeted_attack(std::span<const std::uint64_t> base_counts,
                                  std::size_t distinct_ids,
                                  std::uint64_t repetitions,
                                  std::uint64_t seed);

/// Flooding attack: `distinct_ids` forged ids (its estimate of E_k), each
/// injected `repetitions` times, to cover every counter of the sketch and
/// inflate ALL estimates (Sec. V-B).  Structurally like make_targeted_attack
/// with a larger id budget; kept separate to mirror the paper's taxonomy.
AttackStream make_flooding_attack(std::span<const std::uint64_t> base_counts,
                                  std::size_t distinct_ids,
                                  std::uint64_t repetitions,
                                  std::uint64_t seed);

/// The paper's Fig. 7b / 10b scenario: legitimate ids carry a truncated
/// Poisson(lambda = n/2) profile, which over-represents a band of ~50 ids —
/// the combined "targeted + flooding" bias.  Returns the composed stream
/// with the over-represented band reported as malicious.
AttackStream make_poisson_band_attack(std::size_t n, std::uint64_t m,
                                      std::uint64_t seed);

/// Fraction of output stream positions carrying malicious ids — the
/// headline success measure for an attack.
double malicious_fraction(std::span<const NodeId> stream,
                          std::span<const NodeId> malicious_ids);

}  // namespace unisamp
