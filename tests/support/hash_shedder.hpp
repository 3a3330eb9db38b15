// Deterministic, stateless shedder for the oracle tests.
//
// The decision is a pure hash of (event seq, window position, salt), so
// every pipeline that sees the same membership makes the same decision:
// serial goldens and the K-shard engine, log replay after recovery, and
// in-order and reordered input.  Only the decision counters are state.
// mod == 0 keeps everything; salt 0 contributes nothing to the hash, so
// unsalted and salt-0 decisions are identical.
#pragma once

#include <cstdint>

#include "core/shedder.hpp"

namespace espice::test_support {

class HashShedder final : public Shedder {
 public:
  explicit HashShedder(unsigned mod, unsigned salt = 0)
      : mod_(mod), salt_(salt) {}

  bool should_drop(const Event& e, std::uint32_t position, double) override {
    const bool drop =
        mod_ != 0 && ((e.seq * 2654435761ULL) ^ (position * 40503ULL) ^
                      (salt_ * 7919ULL)) %
                             mod_ !=
                         0;
    count_decision(drop);
    return drop;
  }
  void on_command(const DropCommand&) override {}
  const char* name() const override { return "hash"; }

 private:
  unsigned mod_;
  unsigned salt_;
};

}  // namespace espice::test_support
