/// \file selftest.cpp
/// \brief Self-tests of the reply checker: it must accept a correct reply
/// and reject a tampered witness, a witness of the wrong length, a digest
/// mismatch and ERROR / REJECTED replies.
#include <iostream>

#include "check.hpp"
#include "common.hpp"

namespace perfbench {

int run_selftest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
  };

  // The cycle family at n = 5 is C5: 0-1-2-3-4-0.
  const TenantGraph c5(TenantSpec{"t", "cycle", 5, 5, 1});
  Op query;
  query.payload = "query tenant=t algo=tester k=5 seed=1";
  query.algo = "tester";
  query.k = 5;
  const auto reply = [](const std::string& witness, int accepted = 0) {
    return "OK query accepted=" + std::to_string(accepted) +
           " rejecting=1 reps=1 rounds=4 witness=" + witness;
  };

  expect(check_reply(query, reply("0-1-2-3-4"), c5).empty(), "valid 5-cycle witness accepted");
  expect(check_reply(query, reply("4-3-2-1-0"), c5).empty(), "reversed witness accepted");
  expect(check_reply(query, reply("-", 1), c5).empty(), "accepting reply without witness accepted");
  expect(!check_reply(query, reply("0-2-1-3-4"), c5).empty(), "tampered witness rejected");
  expect(!check_reply(query, reply("0-1-2-3"), c5).empty(), "witness of length k-1 rejected");
  expect(!check_reply(query, reply("0-1-2-3-4-0"), c5).empty(), "witness of length k+1 rejected");
  expect(!check_reply(query, reply("0-1-0-1-0"), c5).empty(), "non-simple witness rejected");
  expect(!check_reply(query, reply("0-1-2-3-9"), c5).empty(), "out-of-range vertex rejected");
  expect(!check_reply(query, reply("-"), c5).empty(), "rejecting reply without witness rejected");
  expect(!check_reply(query, reply("0-1-2-3-4", 1), c5).empty(),
         "accepting reply with a witness rejected");
  expect(!check_reply(query, "ERROR internal boom", c5).empty(), "ERROR reply rejected");
  expect(!check_reply(query, "REJECTED overload queue_full queue_depth=9", c5).empty(),
         "REJECTED reply rejected");
  expect(!check_reply(query, "OK query garbage", c5).empty(), "malformed reply rejected");

  Op insert;
  insert.kind = Op::Kind::kInsert;
  insert.edges = 8;
  expect(check_reply(insert, "OK insert applied=8 closures=1 first_closure=3", c5).empty(),
         "insert reply applying the batch accepted");
  expect(!check_reply(insert, "OK insert applied=7 closures=0 first_closure=-", c5).empty(),
         "insert reply applying a short batch rejected");
  expect(check_create_reply("OK create tenant=t n=5 m=5 hash=ab", c5).empty(),
         "create reply matching the rebuild accepted");
  expect(!check_create_reply("OK create tenant=t n=5 m=6 hash=ab", c5).empty(),
         "create reply with a different edge count rejected");

  Digest a;
  Digest b;
  for (const char* r : {"OK query accepted=1", "OK insert applied=8"}) a.add(r);
  for (const char* r : {"OK query accepted=1", "OK insert applied=9"}) b.add(r);
  expect(check_digests({"t"}, {a.value()}, {a.value()}).empty(), "equal digests accepted");
  expect(!check_digests({"t"}, {a.value()}, {b.value()}).empty(), "digest mismatch rejected");
  Digest joined;
  joined.add("ab");
  Digest split;
  split.add("a");
  split.add("b");
  expect(joined.value() != split.value(), "digest separates reply boundaries");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures;
}

}  // namespace perfbench
