// test_ckpt.cpp — checkpoint subsystem units (docs/recovery.md): record
// codecs and CRCs, torn-tail semantics, the corruption fuzz sweeps
// (truncate at every byte offset, flip every bit of every record), run
// budgets, and the atomic file writer.  The sweeps are the satellite's
// hard guarantee: readJournal() must never crash on hostile bytes and must
// fail closed on everything except exactly one torn tail record.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/atomic_file.h"
#include "ckpt/budget.h"
#include "ckpt/journal.h"
#include "ckpt/mcs_ckpt.h"
#include "graph/interference_graph.h"
#include "sched/growth.h"
#include "sched/mcs.h"
#include "test_helpers.h"
#include "workload/io.h"

namespace rfid::ckpt {
namespace {

namespace fs = std::filesystem;

class CkptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Suffix with the pid: ctest -j runs each case as its own process, and
    // concurrent cases sharing one fixture dir race each other's remove_all.
    dir_ = "ckpt_test_tmp." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

JournalHeader testHeader() {
  JournalHeader h;
  h.algo = "Alg2";
  h.seed = 42;
  h.deployment_hash = 0x0123456789abcdefull;
  h.fault_hash = 0xfeedull;
  return h;
}

SlotEntry testSlot(int q) {
  SlotEntry e;
  e.slot = q;
  e.active = {1, 4, 7 + q};
  e.served = {2 * q, 2 * q + 1};
  e.crashed = q % 2;
  e.replanned = 1;
  e.missed = 2;
  e.ideal = 3 + q;
  e.faulty = (q % 2) != 0;
  e.lost = false;
  e.epoch = q / 3;
  e.fp = 0xdeadbeefcafe0000ull + static_cast<std::uint64_t>(q);
  return e;
}

/// Writes a journal with `n` slots and returns its full byte content.
std::string makeJournal(const std::string& p, int n) {
  JournalWriter w;
  EXPECT_TRUE(w.create(p, testHeader()));
  for (int q = 0; q < n; ++q) EXPECT_TRUE(w.appendSlot(testSlot(q)));
  w.close();
  std::ifstream is(p, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  return text;
}

void writeBytes(const std::string& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- hashes ----

TEST(CkptHash, Crc32KnownVectors) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);  // the classic IEEE check value
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(CkptHash, Fnv1aBasics) {
  EXPECT_EQ(fnv1a(""), 1469598103934665603ull);  // offset basis
  EXPECT_NE(fnv1a("reader,0"), fnv1a("reader,1"));
  // Chaining is equivalent to hashing the concatenation.
  EXPECT_EQ(fnv1a("cd", fnv1a("ab")), fnv1a("abcd"));
}

// The deployment hash as it was first computed: FNV-1a over the CSV text an
// ostream prints at precision 17.  Kept test-side, so the check below does
// not lean on the production serializer it guards.
std::string streamSerialization(const core::System& sys) {
  std::ostringstream os;
  os << "# rfidsched deployment v1\n";
  os.precision(17);
  for (const core::Reader& r : sys.readers()) {
    os << "reader," << r.id << ',' << r.pos.x << ',' << r.pos.y << ','
       << r.interference_radius << ',' << r.interrogation_radius << '\n';
  }
  for (const core::Tag& t : sys.tags()) {
    os << "tag," << t.id << ',' << t.pos.x << ',' << t.pos.y << ',' << t.epc
       << '\n';
  }
  return os.str();
}

void expectCanonicalSerialization(const core::System& sys,
                                  const std::string& label) {
  const std::string want = streamSerialization(sys);
  std::ostringstream saved;
  workload::saveDeployment(saved, sys);
  EXPECT_EQ(saved.str(), want) << label;
  EXPECT_EQ(deploymentHash(sys), fnv1a(want)) << label;
}

TEST(CkptHash, DeploymentHashMatchesStreamSerialization) {
  for (const std::uint64_t seed : test::seedRange(1, test::iterBudget(8))) {
    expectCanonicalSerialization(test::smallRandomSystem(seed, 12, 90),
                                 "seed " + std::to_string(seed));
  }
  // Edge values: signed zero, integral doubles, a tiny normal, negative
  // coordinates, long mantissas and the widest EPC.
  std::vector<core::Reader> readers = {
      {0, {-0.0, 0.0}, 5.0, 3.0},
      {1, {-12.25, -1e-300}, 40.0, 0.1},
      {2, {1.0 / 3.0, 123.00000000000001}, 7.000000000000001, 7.0}};
  std::vector<core::Tag> tags = {
      {0, {1e-300, -0.0}, 0},
      {1, {-3.0, 98.765432109876543}, 18446744073709551615ull},
      {2, {0.1, -2.5e-8}, 9223372036854775808ull}};
  expectCanonicalSerialization(
      core::System(std::move(readers), std::move(tags)), "edge values");
}

TEST(CkptHash, GoldenDeploymentHashIsPinned) {
  // Journals record this hash in their header; a serializer that prints a
  // single byte differently would refuse to resume every one of them.
  std::string err;
  const auto sys = workload::loadDeploymentFile(
      std::string(RFIDSCHED_GOLDEN_DIR) + "/deploy.csv", &err);
  ASSERT_TRUE(sys.has_value()) << err;
  EXPECT_EQ(deploymentHash(*sys), 0x4810445d9d2717f3ull);
}

// ---- record codecs ----

TEST(CkptCodec, HeaderRoundTrip) {
  const JournalHeader h = testHeader();
  JournalHeader out;
  ASSERT_TRUE(decodeHeader(encodeHeader(h), &out));
  EXPECT_EQ(out, h);
}

TEST(CkptCodec, SlotRoundTrip) {
  for (int q : {0, 1, 5, 1000}) {
    const SlotEntry e = testSlot(q);
    SlotEntry out;
    ASSERT_TRUE(decodeSlot(encodeSlot(e), &out));
    EXPECT_EQ(out, e);
  }
  // Empty active / served sets are legal (a stalled slot).
  SlotEntry empty;
  SlotEntry out;
  ASSERT_TRUE(decodeSlot(encodeSlot(empty), &out));
  EXPECT_EQ(out, empty);
}

TEST(CkptCodec, DecodersRejectEveryTamperedByte) {
  const std::string hdr = encodeHeader(testHeader());
  const std::string slot = encodeSlot(testSlot(3));
  JournalHeader h;
  SlotEntry e;
  for (std::size_t i = 0; i < hdr.size(); ++i) {
    std::string t = hdr;
    t[i] = static_cast<char>(t[i] ^ 0x01);
    EXPECT_FALSE(decodeHeader(t, &h)) << "byte " << i;
  }
  for (std::size_t i = 0; i < slot.size(); ++i) {
    std::string t = slot;
    t[i] = static_cast<char>(t[i] ^ 0x01);
    EXPECT_FALSE(decodeSlot(t, &e)) << "byte " << i;
  }
}

TEST(CkptCodec, SnapshotRoundTripAllNibbleBoundaries) {
  // 0..9 tags crosses every 4-tags-per-nibble packing boundary.
  for (int tags = 0; tags <= 9; ++tags) {
    Snapshot s;
    s.slot = 17;
    for (int t = 0; t < tags; ++t) {
      s.read.push_back(static_cast<char>(t % 3 == 0 ? 1 : 0));
    }
    const std::string text = encodeSnapshot(s, 0xabcdull);
    Snapshot out;
    std::uint64_t dep = 0;
    ASSERT_TRUE(decodeSnapshot(text, &out, &dep)) << tags << " tags";
    EXPECT_EQ(out.slot, s.slot);
    EXPECT_EQ(out.read, s.read);
    EXPECT_EQ(dep, 0xabcdull);
  }
}

TEST(CkptCodec, SnapshotRejectsTamper) {
  Snapshot s;
  s.slot = 4;
  s.read = {1, 0, 1, 1, 0};
  const std::string text = encodeSnapshot(s, 99);
  Snapshot out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string t = text;
    t[i] = static_cast<char>(t[i] ^ 0x10);
    EXPECT_FALSE(decodeSnapshot(t, &out, nullptr)) << "byte " << i;
  }
}

// ---- journal writer / reader ----

TEST_F(CkptTest, WriteThenReadBack) {
  const std::string p = path("j");
  makeJournal(p, 5);
  std::string err;
  const auto data = readJournal(p, &err);
  ASSERT_TRUE(data.has_value()) << err;
  EXPECT_EQ(data->header, testHeader());
  ASSERT_EQ(data->slots.size(), 5u);
  for (int q = 0; q < 5; ++q) EXPECT_EQ(data->slots[q], testSlot(q));
  EXPECT_FALSE(data->dropped_torn_tail);
  EXPECT_EQ(data->valid_bytes, fs::file_size(p));
}

TEST_F(CkptTest, CreateRefusesToClobber) {
  const std::string p = path("j");
  makeJournal(p, 1);
  JournalWriter w;
  std::string err;
  EXPECT_FALSE(w.create(p, testHeader(), &err));
  EXPECT_NE(err.find("resume it or remove it"), std::string::npos) << err;
  // The existing journal is untouched.
  EXPECT_TRUE(readJournal(p).has_value());
}

TEST_F(CkptTest, TornTailIsDroppedAndTruncatedOnAppend) {
  const std::string p = path("j");
  const std::string full = makeJournal(p, 3);
  // Simulate a crash mid-write of record 3: append half a record.
  const std::string torn = encodeSlot(testSlot(3)).substr(0, 20);
  writeBytes(p, full + torn);

  std::string err;
  const auto data = readJournal(p, &err);
  ASSERT_TRUE(data.has_value()) << err;
  EXPECT_TRUE(data->dropped_torn_tail);
  ASSERT_EQ(data->slots.size(), 3u);
  EXPECT_EQ(data->valid_bytes, full.size());

  // openAppend truncates the torn bytes, and appending continues cleanly.
  JournalWriter w;
  ASSERT_TRUE(w.openAppend(p, data->header, data->valid_bytes, &err)) << err;
  ASSERT_TRUE(w.appendSlot(testSlot(3)));
  w.close();
  const auto again = readJournal(p, &err);
  ASSERT_TRUE(again.has_value()) << err;
  EXPECT_FALSE(again->dropped_torn_tail);
  ASSERT_EQ(again->slots.size(), 4u);
  EXPECT_EQ(again->slots[3], testSlot(3));
}

TEST_F(CkptTest, InteriorCorruptionFailsClosed) {
  const std::string p = path("j");
  std::string text = makeJournal(p, 4);
  // Damage a byte in the middle of the file (inside record 1), keeping the
  // tail intact: this must NOT be treated as a torn tail.
  text[text.size() / 2] ^= 0x40;
  writeBytes(p, text);
  std::string err;
  EXPECT_FALSE(readJournal(p, &err).has_value());
  EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
}

TEST_F(CkptTest, SlotSequenceGapFailsClosed) {
  const std::string p = path("j");
  JournalWriter w;
  ASSERT_TRUE(w.create(p, testHeader()));
  ASSERT_TRUE(w.appendSlot(testSlot(0)));
  ASSERT_TRUE(w.appendSlot(testSlot(2)));  // skipped slot 1
  // A valid non-final record must follow, otherwise the gap record is
  // (correctly) indistinguishable from a torn tail and dropped.
  ASSERT_TRUE(w.appendSlot(testSlot(3)));
  w.close();
  std::string err;
  EXPECT_FALSE(readJournal(p, &err).has_value());
  EXPECT_NE(err.find("sequence gap"), std::string::npos) << err;
}

TEST_F(CkptTest, EmptyAndHeaderlessFilesFailClosed) {
  const std::string p = path("j");
  writeBytes(p, "");
  EXPECT_FALSE(readJournal(p).has_value());
  writeBytes(p, "not a journal\n");
  EXPECT_FALSE(readJournal(p).has_value());
  EXPECT_FALSE(readJournal(path("missing")).has_value());
}

// ---- corruption fuzz sweeps ----

TEST_F(CkptTest, TornHeaderFailsClosedEvenWithValidSlotsBehindIt) {
  // The one-torn-record leniency is for the *tail* only.  A journal whose
  // header record is damaged identifies no run at all — resuming against
  // the wrong deployment would silently produce garbage — so it must fail
  // closed even when perfectly valid slot records follow the damage.
  const std::string p = path("j");
  const std::string hdr = encodeHeader(testHeader()) + "\n";
  const std::string slots = encodeSlot(testSlot(0)) + "\n" +
                            encodeSlot(testSlot(1)) + "\n";
  std::string err;

  // Header cut mid-record, intact slots appended after the tear.
  writeBytes(p, hdr.substr(0, hdr.size() / 2) + slots);
  EXPECT_FALSE(readJournal(p, &err).has_value());
  EXPECT_FALSE(err.empty());

  // Header missing its newline terminator, slots glued on.
  writeBytes(p, hdr.substr(0, hdr.size() - 1) + slots);
  EXPECT_FALSE(readJournal(p, &err).has_value());

  // Header replaced by a slot record: first record must BE a header.
  writeBytes(p, slots);
  EXPECT_FALSE(readJournal(p, &err).has_value());

  // Zero-byte journal: nothing to resume.
  writeBytes(p, "");
  EXPECT_FALSE(readJournal(p, &err).has_value());
}

TEST_F(CkptTest, FuzzTruncateAtEveryByteOffset) {
  const std::string p = path("j");
  const std::string full = makeJournal(p, 6);
  const auto orig = readJournal(p);
  ASSERT_TRUE(orig.has_value());
  const std::size_t header_bytes =
      encodeHeader(testHeader()).size() + 1;  // + '\n'

  const std::string cut_path = path("cut");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    writeBytes(cut_path, full.substr(0, cut));
    const auto data = readJournal(cut_path);  // must never crash
    if (cut < header_bytes) {
      // Header incomplete: nothing to resume, fail closed.
      EXPECT_FALSE(data.has_value()) << "cut=" << cut;
      continue;
    }
    // Past the header every truncation is recoverable: complete records
    // survive, at most one partial tail record is dropped.
    ASSERT_TRUE(data.has_value()) << "cut=" << cut;
    EXPECT_EQ(data->header, orig->header);
    ASSERT_LE(data->slots.size(), orig->slots.size());
    for (std::size_t q = 0; q < data->slots.size(); ++q) {
      EXPECT_EQ(data->slots[q], orig->slots[q]) << "cut=" << cut;
    }
    EXPECT_EQ(data->dropped_torn_tail, cut != full.size() &&
                                           data->valid_bytes != cut)
        << "cut=" << cut;
    EXPECT_LE(data->valid_bytes, cut);
  }
}

TEST_F(CkptTest, FuzzFlipEveryBitOfEveryRecord) {
  const std::string p = path("j");
  const std::string full = makeJournal(p, 4);
  const auto orig = readJournal(p);
  ASSERT_TRUE(orig.has_value());

  const std::string flip_path = path("flip");
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string t = full;
      t[byte] = static_cast<char>(t[byte] ^ (1 << bit));
      writeBytes(flip_path, t);
      const auto data = readJournal(flip_path);  // must never crash
      if (!data.has_value()) continue;           // failed closed: fine
      // Anything readJournal accepts must be a strict prefix of the truth
      // (the damaged record — wherever the flip landed — was dropped as a
      // torn tail, never silently altered).
      EXPECT_EQ(data->header, orig->header) << "byte=" << byte;
      ASSERT_LT(data->slots.size(), orig->slots.size())
          << "byte=" << byte << " bit=" << bit
          << ": single-bit corruption accepted in full";
      for (std::size_t q = 0; q < data->slots.size(); ++q) {
        EXPECT_EQ(data->slots[q], orig->slots[q]) << "byte=" << byte;
      }
    }
  }
}

// ---- atomic file writer ----

TEST_F(CkptTest, AtomicWriteRoundTripAndOverwrite) {
  const std::string p = path("f");
  ASSERT_TRUE(writeFileAtomic(p, "first"));
  std::ifstream a(p);
  std::string got((std::istreambuf_iterator<char>(a)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(writeFileAtomic(p, "second, longer content"));
  std::ifstream b(p);
  got.assign(std::istreambuf_iterator<char>(b),
             std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "second, longer content");
  EXPECT_FALSE(fs::exists(p + ".tmp"));
}

TEST_F(CkptTest, AtomicWriteFailureReportsStepAndLeavesNoTmp) {
  std::string err;
  EXPECT_FALSE(writeFileAtomic(path("no_such_dir") + "/f", "x", &err));
  EXPECT_NE(err.find("open tmp"), std::string::npos) << err;
  // Rename failure (target is a directory): the old target survives and
  // the temporary is cleaned up — no torn artifacts on any failure path.
  const std::string dirp = path("adir");
  fs::create_directory(dirp);
  err.clear();
  EXPECT_FALSE(writeFileAtomic(dirp, "x", &err));
  EXPECT_NE(err.find("rename"), std::string::npos) << err;
  EXPECT_TRUE(fs::is_directory(dirp));
  EXPECT_FALSE(fs::exists(dirp + ".tmp"));
}

// ---- budgets ----

TEST(CkptBudget, UnarmedBudgetNeverStops) {
  RunBudget b;
  EXPECT_FALSE(b.armed());
  EXPECT_EQ(b.charge(0), BudgetStop::kNone);
  EXPECT_EQ(b.charge(1 << 20), BudgetStop::kNone);
}

TEST(CkptBudget, SlotCapFiresDeterministically) {
  RunBudget b;
  b.setSlotCap(3);
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(b.charge(2), BudgetStop::kNone);
  EXPECT_EQ(b.charge(3), BudgetStop::kSlotCap);
  EXPECT_EQ(b.charge(4), BudgetStop::kSlotCap);
  // The cap outranks an expired deadline: cap-limited runs stop at the
  // same slot regardless of wall-clock jitter.
  b.setDeadline(std::chrono::milliseconds(0));
  EXPECT_EQ(b.charge(3), BudgetStop::kSlotCap);
}

TEST(CkptBudget, ExpiredDeadlineStops) {
  RunBudget b;
  b.setDeadline(std::chrono::milliseconds(0));
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(b.charge(0), BudgetStop::kDeadline);
  EXPECT_TRUE(b.token().cancelled());
}

TEST(CkptBudget, ExplicitCancelStops) {
  RunBudget b;
  EXPECT_EQ(b.charge(0), BudgetStop::kNone);
  b.token().cancel();
  EXPECT_EQ(b.charge(0), BudgetStop::kCancelled);
  EXPECT_TRUE(b.token().cancelled());
}

TEST(CkptBudget, TokenDeadlineLifecycle) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  t.setDeadline(std::chrono::steady_clock::now() +
                std::chrono::hours(24));
  EXPECT_FALSE(t.deadlineExpired());
  t.setDeadline(std::chrono::steady_clock::now() -
                std::chrono::milliseconds(1));
  EXPECT_TRUE(t.deadlineExpired());
  t.clearDeadline();
  EXPECT_FALSE(t.cancelled());
}

TEST(CkptBudget, StopNames) {
  EXPECT_STREQ(budgetStopName(BudgetStop::kNone), "none");
  EXPECT_STREQ(budgetStopName(BudgetStop::kSlotCap), "slot-cap");
  EXPECT_STREQ(budgetStopName(BudgetStop::kDeadline), "deadline");
  EXPECT_STREQ(budgetStopName(BudgetStop::kCancelled), "cancelled");
}

// ---- budget / token edge cases (the service layer's contracts) ----

TEST(CkptBudget, ZeroAndNegativeDeadlinesFireImmediately) {
  // A <= 0 deadline must arm and fire at the very first checkpoint — the
  // admission layer maps "deadline already spent" onto exactly this.
  RunBudget zero;
  zero.setDeadline(std::chrono::milliseconds(0));
  EXPECT_TRUE(zero.armed());
  EXPECT_EQ(zero.charge(0), BudgetStop::kDeadline);

  RunBudget negative;
  negative.setDeadline(std::chrono::milliseconds(-50));
  EXPECT_TRUE(negative.armed());
  EXPECT_EQ(negative.charge(0), BudgetStop::kDeadline);
  EXPECT_TRUE(negative.token().cancelled());
}

TEST(CkptBudget, AlreadyCancelledTokenAtAdmissionRunsZeroSlots) {
  // A token cancelled before the run starts (client gone, drain racing
  // admission) must yield a valid empty result: zero committed slots,
  // interrupted, kCancelled — never a partial first slot.
  core::System sys = test::smallRandomSystem(7, 10, 60, 40.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler scheduler(g);
  RunBudget budget;
  budget.token().cancel();
  sched::McsOptions opt;
  opt.budget = &budget;
  scheduler.attachCancel(&budget.token());
  const sched::McsResult res = sched::runCoveringSchedule(sys, scheduler, opt);
  EXPECT_EQ(res.slots, 0);
  EXPECT_EQ(res.tags_read, 0);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.stop, sched::McsStop::kCancelled);
  EXPECT_TRUE(res.schedule.empty());
}

/// Cancels the shared token *during* the Nth schedule() call — the
/// raced-with-final-slot-commit window: the driver has already committed
/// N-1 slots and is mid-proposal for slot N when the cancel lands.
class CancelDuringNthCall : public sched::OneShotScheduler {
 public:
  CancelDuringNthCall(sched::OneShotScheduler& inner, CancelToken& token,
                      int fire_on_call)
      : inner_(inner), token_(token), fire_on_call_(fire_on_call) {}

  std::string name() const override { return inner_.name(); }
  sched::OneShotResult schedule(const core::System& sys) override {
    if (++calls_ == fire_on_call_) token_.cancel();
    return inner_.schedule(sys);
  }

 private:
  sched::OneShotScheduler& inner_;
  CancelToken& token_;
  int fire_on_call_;
  int calls_ = 0;
};

TEST(CkptBudget, CancelRacedWithFinalSlotCommitKeepsPrefixOnly) {
  // Baseline trajectory, uninterrupted.
  core::System base = test::smallRandomSystem(11, 12, 80, 45.0);
  const graph::InterferenceGraph g0(base);
  sched::GrowthScheduler s0(g0);
  const sched::McsResult full = sched::runCoveringSchedule(base, s0);
  ASSERT_GE(full.slots, 2) << "need a multi-slot run to race the last slot";

  // Same run, but the token fires inside the final slot's schedule() call.
  // The anytime contract: that proposal is discarded, never committed, so
  // the result is exactly the first slots-1 of the uninterrupted run.
  core::System sys = test::smallRandomSystem(11, 12, 80, 45.0);
  const graph::InterferenceGraph g(sys);
  sched::GrowthScheduler inner(g);
  RunBudget budget;
  CancelDuringNthCall racer(inner, budget.token(), full.slots);
  sched::McsOptions opt;
  opt.budget = &budget;
  const sched::McsResult res = sched::runCoveringSchedule(sys, racer, opt);
  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.stop, sched::McsStop::kCancelled);
  ASSERT_EQ(res.slots, full.slots - 1);
  for (int q = 0; q < res.slots; ++q) {
    const auto idx = static_cast<std::size_t>(q);
    EXPECT_EQ(res.schedule[idx].active, full.schedule[idx].active)
        << "slot " << q;
    EXPECT_EQ(res.schedule[idx].tags_read, full.schedule[idx].tags_read)
        << "slot " << q;
  }
}

}  // namespace
}  // namespace rfid::ckpt
