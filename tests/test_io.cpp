// Deployment serialization tests: exact round-trips and fail-closed
// parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "test_helpers.h"
#include "workload/io.h"
#include "workload/rng.h"

namespace rfid::workload {
namespace {

TEST(Io, RoundTripPreservesEverything) {
  const core::System original = test::smallRandomSystem(42, 20, 150, 60.0);
  std::stringstream ss;
  saveDeployment(ss, original);
  const auto loaded = loadDeployment(ss);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->numReaders(), original.numReaders());
  ASSERT_EQ(loaded->numTags(), original.numTags());
  for (int v = 0; v < original.numReaders(); ++v) {
    EXPECT_EQ(loaded->reader(v).pos, original.reader(v).pos);
    EXPECT_EQ(loaded->reader(v).interference_radius,
              original.reader(v).interference_radius);
    EXPECT_EQ(loaded->reader(v).interrogation_radius,
              original.reader(v).interrogation_radius);
  }
  for (int t = 0; t < original.numTags(); ++t) {
    EXPECT_EQ(loaded->tag(t).pos, original.tag(t).pos);
    EXPECT_EQ(loaded->tag(t).epc, original.tag(t).epc);
  }
  // Derived structures must agree too — the real test of exactness.
  for (int v = 0; v < original.numReaders(); ++v) {
    EXPECT_EQ(test::coveredTags(*loaded, v), test::coveredTags(original, v));
  }
}

TEST(Io, FileRoundTrip) {
  const core::System sys = test::figure2System();
  const std::string path = "io_test_deployment.csv";
  ASSERT_TRUE(saveDeploymentFile(path, sys));
  const auto loaded = loadDeploymentFile(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->numReaders(), 3);
  EXPECT_EQ(loaded->numTags(), 5);
  EXPECT_EQ(loaded->weight(std::vector<int>{0, 2}), 4);  // Figure 2 intact
  std::filesystem::remove(path);
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  std::stringstream ss;
  ss << "# comment\n\nreader,0,1.0,2.0,5.0,3.0\n# more\ntag,0,1.5,2.0,7\n";
  const auto loaded = loadDeployment(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->numReaders(), 1);
  EXPECT_EQ(loaded->tag(0).epc, 7u);
}

TEST(Io, FailsClosedOnGarbage) {
  for (const std::string bad : {
           "reader,0,1.0,2.0,5.0\n",          // missing field
           "reader,0,1.0,2.0,5.0,3.0,9\n",    // extra field
           "reader,x,1.0,2.0,5.0,3.0\n",      // non-numeric id
           "reader,0,1.0,2.0,3.0,5.0\n",      // gamma > R
           "reader,0,1.0,2.0,5.0,0.0\n",      // gamma = 0
           "widget,0,1,2\n",                  // unknown record
           "tag,0,1.0,2.0\n",                 // short tag
           "\x01garbage\n",                   // binary noise
       }) {
    std::stringstream ss(bad);
    EXPECT_FALSE(loadDeployment(ss).has_value()) << bad;
  }
}

TEST(Io, EmptyInputIsRejected) {
  std::stringstream ss("# only a comment\n");
  EXPECT_FALSE(loadDeployment(ss).has_value());
}

TEST(Io, MissingFileIsRejected) {
  EXPECT_FALSE(loadDeploymentFile("/nonexistent/path.csv").has_value());
}

TEST(Io, TrulyEmptyFileIsRejected) {
  // A zero-byte file (created but never written — a crashed save outside
  // the atomic writer, or a stray touch) must fail closed, not yield an
  // empty System.
  const std::string p = "io_empty_test.csv";
  { std::ofstream os(p, std::ios::binary | std::ios::trunc); }
  EXPECT_FALSE(loadDeploymentFile(p).has_value());
  std::remove(p.c_str());
}

TEST(Io, EpcUint64BoundaryRoundTrip) {
  // EPCs are full-width uint64: INT_MAX+1, 2^63, and UINT64_MAX must
  // survive load → save → load exactly (a signed-int path would mangle
  // all three).
  const std::uint64_t epcs[] = {2147483648ull, 9223372036854775808ull,
                                18446744073709551615ull};
  std::stringstream in;
  in << "reader,0,1.0,2.0,5.0,3.0\n";
  for (int i = 0; i < 3; ++i) {
    in << "tag," << i << ',' << (1.0 + i) << ",2.0," << epcs[i] << '\n';
  }
  const auto first = loadDeployment(in);
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(first->tag(i).epc, epcs[i]);
  std::stringstream out;
  saveDeployment(out, *first);
  const auto second = loadDeployment(out);
  ASSERT_TRUE(second.has_value());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(second->tag(i).epc, epcs[i]);
}

TEST(Io, EpcRejectsSignAndOverflow) {
  // UINT64_MAX is 18446744073709551615; everything past it — one more, a
  // 10× digit string, an absurdly long run of 9s — must be rejected rather
  // than silently wrapped, alongside signs and trailing junk.
  for (const std::string epc :
       {"-1", "+7", "18446744073709551616", "184467440737095516150",
        "99999999999999999999999999999999", "", "7x", "0x10"}) {
    std::stringstream ss("reader,0,1.0,2.0,5.0,3.0\ntag,0,1.0,2.0," + epc +
                         "\n");
    EXPECT_FALSE(loadDeployment(ss).has_value()) << "epc=" << epc;
  }
}

TEST(Io, CrlfLineEndingsTolerated) {
  std::stringstream ss(
      "# exported from a spreadsheet\r\n"
      "reader,0,1.0,2.0,5.0,3.0\r\n"
      "tag,0,1.5,2.0,7\r\n");
  const auto loaded = loadDeployment(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->numReaders(), 1);
  EXPECT_EQ(loaded->tag(0).epc, 7u);
}

TEST(Io, DuplicateIdsRejected) {
  {
    std::stringstream ss(
        "reader,0,1.0,2.0,5.0,3.0\n"
        "reader,0,9.0,9.0,5.0,3.0\n");
    EXPECT_FALSE(loadDeployment(ss).has_value()) << "duplicate reader id";
  }
  {
    std::stringstream ss(
        "reader,0,1.0,2.0,5.0,3.0\n"
        "tag,3,1.0,2.0,7\n"
        "tag,3,4.0,5.0,8\n");
    EXPECT_FALSE(loadDeployment(ss).has_value()) << "duplicate tag id";
  }
}

TEST(Io, NonFiniteFieldsRejectedWithNamedLine) {
  // stod accepts "nan" and "inf"; the loader must not — one poisoned
  // coordinate makes every downstream distance comparison meaningless.
  const char* cases[] = {
      "reader,0,nan,2.0,5.0,3.0\n",  // NaN coordinate
      "reader,0,1.0,inf,5.0,3.0\n",  // inf coordinate
      "reader,0,1.0,2.0,inf,inf\n",  // inf radii (passes r.valid()!)
      "reader,0,1.0,2.0,5.0,nan\n",  // NaN radius
  };
  for (const char* text : cases) {
    std::stringstream ss(text);
    std::string err;
    EXPECT_FALSE(loadDeployment(ss, &err).has_value()) << text;
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  }
  {
    std::stringstream ss(
        "reader,0,1.0,2.0,5.0,3.0\n"
        "tag,3,nan,5.0,8\n");
    std::string err;
    EXPECT_FALSE(loadDeployment(ss, &err).has_value());
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("tag position"), std::string::npos) << err;
  }
}

TEST(Io, NumericFieldFormsMatchStod) {
  // The loader accepts exactly the numeric forms std::stod / std::stoi take
  // with the whole field consumed, and nothing that underflows, overflows or
  // is not finite.  Pinned so a faster parser cannot widen or narrow them.
  const auto load = [](const std::string& text, std::string* err) {
    std::stringstream ss(text);
    return loadDeployment(ss, err);
  };
  const std::string reader = "reader,0,1.0,2.0,5.0,3.0\n";
  const auto tagAt = [&](const std::string& x) {
    return reader + "tag,0," + x + ",2.0,7\n";
  };
  const auto tagWithId = [&](const std::string& id) {
    return reader + "tag," + id + ",1.0,2.0,7\n";
  };

  const std::pair<const char*, double> doubles[] = {
      {"1.5", 1.5},   {" 1.5", 1.5}, {"+1.5", 1.5}, {"0x1p3", 8.0},
      {".5", 0.5},    {"5.", 5.0},   {"1E5", 1e5},  {"-0", -0.0},
      {"00012.5", 12.5}};
  for (const auto& [field, want] : doubles) {
    std::string err;
    const auto sys = load(tagAt(field), &err);
    ASSERT_TRUE(sys.has_value()) << "'" << field << "': " << err;
    EXPECT_EQ(sys->tag(0).pos.x, want) << field;
    EXPECT_EQ(std::signbit(sys->tag(0).pos.x), std::signbit(want)) << field;
  }
  // System renumbers ids, so the parsed value shows in the duplicate check.
  const std::pair<const char*, int> ids[] = {
      {" 7", 7}, {"+7", 7}, {"07", 7}, {"-7", -7}};
  for (const auto& [field, want] : ids) {
    std::string err;
    EXPECT_TRUE(load(tagWithId(field), &err).has_value())
        << "'" << field << "': " << err;
    const std::string twin =
        "tag," + std::to_string(want) + ",3.0,4.0,8\n";
    EXPECT_FALSE(load(tagWithId(field) + twin, &err).has_value()) << field;
    EXPECT_EQ(err, "deployment line 3: duplicate tag id " +
                       std::to_string(want))
        << field;
  }
  {
    std::string err;
    const auto sys = load(reader + "tag,0,1.0,2.0,7,\n", &err);
    ASSERT_TRUE(sys.has_value()) << "one trailing comma: " << err;
    EXPECT_EQ(sys->tag(0).epc, 7u);
  }

  const auto rejects = [&](const std::string& text, const std::string& what,
                           const std::string& label) {
    std::string err;
    EXPECT_FALSE(load(text, &err).has_value()) << label;
    EXPECT_EQ(err, "deployment line 2: " + what) << label;
  };
  for (const char* field :
       {"1.5 ", "1.5\t", "1e", "0x", "nan", "infinity", "1e400", "1e-400",
        "1e-310", "4.9e-324"}) {
    rejects(tagAt(field), "tag position is not a finite number",
            std::string("x='") + field + "'");
  }
  for (const char* field : {"7 ", "2147483648", "0x7"}) {
    rejects(tagWithId(field), "malformed tag id",
            std::string("id='") + field + "'");
  }
  rejects(reader + "tag,0,1.0,2.0,7,,\n", "unrecognized record 'tag'",
          "two trailing commas");
}

TEST(Io, ParsedDoublesEqualStod) {
  // Plain decimal fields take the from_chars path; its values must be the
  // ones std::stod gives, at every precision a survey might print and at
  // magnitudes from 1e-300 up to 1e7.
  workload::Rng rng(2024);
  std::string text = "reader,0,1.0,2.0,5.0,3.0\n";
  std::vector<std::string> fields;
  for (int i = 0; i < 400; ++i) {
    const double v = rng.uniform(1.0, 10.0) *
                     std::pow(10.0, rng.uniformInt(-300, 6)) *
                     (i % 2 == 0 ? 1.0 : -1.0);
    char buf[64];
    const char* const formats[] = {"%.17g", "%.15g", "%.6e", "%.3f"};
    std::snprintf(buf, sizeof buf, formats[i % 4], v);
    fields.emplace_back(buf);
    text += "tag," + std::to_string(i) + "," + buf + ",0.5,1\n";
  }
  std::stringstream ss(text);
  std::string err;
  const auto sys = loadDeployment(ss, &err);
  ASSERT_TRUE(sys.has_value()) << err;
  for (int i = 0; i < 400; ++i) {
    const std::string& f = fields[static_cast<std::size_t>(i)];
    EXPECT_EQ(sys->tag(i).pos.x, std::stod(f)) << f;
  }
}

TEST(Io, NegativeRadiusRejected) {
  for (const char* text : {"reader,0,1.0,2.0,-5.0,3.0\n",
                           "reader,0,1.0,2.0,5.0,-3.0\n"}) {
    std::stringstream ss(text);
    std::string err;
    EXPECT_FALSE(loadDeployment(ss, &err).has_value()) << text;
    EXPECT_FALSE(err.empty());
  }
}

TEST(Io, ErrorsNameTheProblem) {
  {
    std::stringstream ss("reader,0,1.0,2.0,5.0,3.0\nbogus,1,2\n");
    std::string err;
    EXPECT_FALSE(loadDeployment(ss, &err).has_value());
    EXPECT_NE(err.find("unrecognized"), std::string::npos) << err;
  }
  {
    std::stringstream ss("tag,0,1.0,2.0,7\n");
    std::string err;
    EXPECT_FALSE(loadDeployment(ss, &err).has_value());
    EXPECT_NE(err.find("no readers"), std::string::npos) << err;
  }
  {
    std::string err;
    EXPECT_FALSE(loadDeploymentFile("/nonexistent_xyz/d.csv", &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
  }
}

TEST(Io, SaveFailureNeverLeavesTornFile) {
  namespace fs = std::filesystem;
  const core::System sys = test::figure2System();
  // Unreachable parent directory: the atomic writer cannot even create its
  // temporary, so it must report failure and create nothing.
  EXPECT_FALSE(saveDeploymentFile("/nonexistent_dir_xyz/dep.csv", sys));
  EXPECT_FALSE(fs::exists("/nonexistent_dir_xyz"));
  // Target occupied by a directory: the tmp write succeeds but the final
  // rename cannot (simulating a failure after partial IO).  The directory
  // must be untouched and the temporary cleaned up — no torn artifacts.
  const std::string dir_target = "io_test_target_dir";
  fs::create_directory(dir_target);
  EXPECT_FALSE(saveDeploymentFile(dir_target, sys));
  EXPECT_TRUE(fs::is_directory(dir_target));
  EXPECT_FALSE(fs::exists(dir_target + ".tmp"));
  fs::remove(dir_target);
}

}  // namespace
}  // namespace rfid::workload
