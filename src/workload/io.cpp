#include "workload/io.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "ckpt/atomic_file.h"

namespace rfid::workload {

namespace {

/// Formats lines into a fixed buffer and hands it to the sink whenever the
/// next line might not fit.
class ChunkWriter {
 public:
  explicit ChunkWriter(const std::function<void(std::string_view)>& sink)
      : sink_(sink) {}

  void text(std::string_view s) {
    std::memcpy(end_, s.data(), s.size());
    end_ += s.size();
  }

  template <typename T>
  void number(T v) {
    char* const last = buf_.data() + buf_.size();
    if constexpr (std::is_floating_point_v<T>) {
      end_ = std::to_chars(end_, last, v, std::chars_format::general, 17).ptr;
    } else {
      end_ = std::to_chars(end_, last, v).ptr;
    }
  }

  void comma() { *end_++ = ','; }

  void endLine() {
    *end_++ = '\n';
    if (buf_.data() + buf_.size() - end_ < kMaxLine) flush();
  }

  void flush() {
    if (end_ != buf_.data()) {
      sink_(std::string_view(buf_.data(),
                             static_cast<std::size_t>(end_ - buf_.data())));
    }
    end_ = buf_.data();
  }

 private:
  // A record is a keyword, an int and at most four doubles of at most 24
  // characters each at precision 17, well under this.
  static constexpr std::ptrdiff_t kMaxLine = 256;

  const std::function<void(std::string_view)>& sink_;
  std::array<char, 1 << 13> buf_;
  char* end_ = buf_.data();
};

}  // namespace

void serializeDeployment(const core::System& sys,
                         const std::function<void(std::string_view)>& sink) {
  ChunkWriter w(sink);
  w.text("# rfidsched deployment v1\n");
  for (const core::Reader& r : sys.readers()) {
    w.text("reader,");
    w.number(r.id);
    w.comma();
    w.number(r.pos.x);
    w.comma();
    w.number(r.pos.y);
    w.comma();
    w.number(r.interference_radius);
    w.comma();
    w.number(r.interrogation_radius);
    w.endLine();
  }
  for (const core::Tag& t : sys.tags()) {
    w.text("tag,");
    w.number(t.id);
    w.comma();
    w.number(t.pos.x);
    w.comma();
    w.number(t.pos.y);
    w.comma();
    w.number(t.epc);
    w.endLine();
  }
  w.flush();
}

void saveDeployment(std::ostream& os, const core::System& sys) {
  serializeDeployment(sys, [&os](std::string_view chunk) {
    os.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  });
}

bool saveDeploymentFile(const std::string& path, const core::System& sys) {
  // Serialize to memory, then publish with tmp + fsync + rename: a crash or
  // full disk mid-save leaves either the old file or the new one at `path`,
  // never a torn half-deployment.
  std::string text;
  serializeDeployment(sys, [&text](std::string_view chunk) {
    text.append(chunk);
  });
  return ckpt::writeFileAtomic(path, text);
}

namespace {

/// Hands out the lines of `is` without their '\n', as views into a buffer
/// refilled from `is` 64 KiB at a time, so a load never holds the whole
/// file.  A view is valid until the next call.  The last line may lack its
/// '\n'; a line longer than the buffer grows it.
class LineScanner {
 public:
  explicit LineScanner(std::istream& is) : is_(is), buf_(1 << 16) {}

  bool next(std::string_view& line) {
    for (;;) {
      const std::size_t avail = end_ - pos_;
      const void* nl = std::memchr(buf_.data() + pos_, '\n', avail);
      if (nl != nullptr) {
        const auto len = static_cast<std::size_t>(
            static_cast<const char*>(nl) - (buf_.data() + pos_));
        line = std::string_view(buf_.data() + pos_, len);
        pos_ += len + 1;
        return true;
      }
      if (eof_) {
        if (avail == 0) return false;
        line = std::string_view(buf_.data() + pos_, avail);
        pos_ = end_;
        return true;
      }
      refill();
    }
  }

 private:
  void refill() {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    is_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(is_.gcount());
    eof_ = !is_;
  }

  std::istream& is_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;  // start of the unread bytes
  std::size_t end_ = 0;  // end of the bytes read so far
  bool eof_ = false;
};

/// Splits a CSV line (no quoting; the format never needs it) the way
/// getline(',') would: a line ending in ',' has no empty last field.
/// Stores at most out.size() fields and returns how many it stored; a line
/// with more is malformed whatever they hold.
std::size_t splitFields(std::string_view line,
                        std::array<std::string_view, 7>& out) {
  std::size_t n = 0;
  std::size_t start = 0;
  while (n < out.size()) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      if (start < line.size()) out[n++] = line.substr(start);
      break;
    }
    out[n++] = line.substr(start, comma - start);
    start = comma + 1;
  }
  return n;
}

/// True iff std::from_chars consumes all of `s`.
template <typename T>
bool fromCharsWhole(std::string_view s, T& out) {
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last;
}

// Each parser below takes the from_chars fast path when it consumes the
// whole field; anything else (leading spaces, '+', hex floats, nan/inf,
// out-of-range values, a double that is zero or subnormal) goes through
// std::stod / stoi / stoull, which decide every such form as the loader
// always has.

/// Numeric fields must be *finite*: stod happily parses "nan" and "inf",
/// and a single non-finite coordinate or radius poisons every distance
/// comparison downstream (NaN makes them all false, inf makes a reader
/// cover everything).  stod also rejects an underflow (ERANGE), subnormals
/// included.
bool parseFinite(std::string_view s, double& out) {
  if (fromCharsWhole(s, out) && std::isnormal(out)) return true;
  try {
    const std::string field(s);
    std::size_t used = 0;
    out = std::stod(field, &used);
    return used == field.size() && std::isfinite(out);
  } catch (...) {
    return false;
  }
}

bool parseInt(std::string_view s, int& out) {
  if (fromCharsWhole(s, out)) return true;
  try {
    const std::string field(s);
    std::size_t used = 0;
    out = std::stoi(field, &used);
    return used == field.size();
  } catch (...) {
    return false;
  }
}

/// Full-width unsigned parse for EPCs: a 96-bit-style identifier truncated
/// to 64 bits must not be squeezed through int (stoull would also silently
/// accept "-1" by wrapping, so negatives are rejected up front).
bool parseU64(std::string_view s, std::uint64_t& out) {
  if (fromCharsWhole(s, out)) return true;
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  try {
    const std::string field(s);
    std::size_t used = 0;
    out = std::stoull(field, &used);
    return used == field.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

std::optional<core::System> loadDeployment(std::istream& is,
                                           std::string* err) {
  std::vector<core::Reader> readers;
  std::vector<core::Tag> tags;
  std::unordered_set<int> reader_ids;
  std::unordered_set<int> tag_ids;
  LineScanner lines(is);
  std::string_view line;
  std::array<std::string_view, 7> f;
  int lineno = 0;
  const auto bad = [&](const std::string& what) {
    if (err != nullptr) {
      *err = "deployment line " + std::to_string(lineno) + ": " + what;
    }
    return std::nullopt;
  };
  while (lines.next(line)) {
    ++lineno;
    // Tolerate CRLF files (surveys exported from spreadsheets): the '\r'
    // would otherwise poison the last field's numeric parse.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t nf = splitFields(line, f);
    if (f[0] == "reader" && nf == 6) {
      core::Reader r;
      if (!parseInt(f[1], r.id)) return bad("malformed reader id");
      double x = 0, y = 0;
      if (!parseFinite(f[2], x) || !parseFinite(f[3], y)) {
        return bad("reader position is not a finite number");
      }
      if (!parseFinite(f[4], r.interference_radius) ||
          !parseFinite(f[5], r.interrogation_radius)) {
        return bad("reader radius is not a finite number");
      }
      r.pos = {x, y};
      if (r.interference_radius < 0 || r.interrogation_radius < 0) {
        return bad("negative reader radius");
      }
      if (!r.valid()) {
        return bad("invalid radii (need 0 < interrogation <= interference)");
      }
      // A duplicated id is a corrupt survey, not two devices; accepting it
      // would silently skew every id-keyed structure downstream.
      if (!reader_ids.insert(r.id).second) {
        return bad("duplicate reader id " + std::to_string(r.id));
      }
      readers.push_back(r);
    } else if (f[0] == "tag" && nf == 5) {
      core::Tag t;
      if (!parseInt(f[1], t.id)) return bad("malformed tag id");
      double x = 0, y = 0;
      if (!parseFinite(f[2], x) || !parseFinite(f[3], y)) {
        return bad("tag position is not a finite number");
      }
      if (!parseU64(f[4], t.epc)) return bad("malformed tag epc");
      t.pos = {x, y};
      if (!tag_ids.insert(t.id).second) {
        return bad("duplicate tag id " + std::to_string(t.id));
      }
      tags.push_back(t);
    } else {
      // Fail closed.
      return bad("unrecognized record '" + std::string(f[0]) + "'");
    }
  }
  if (readers.empty()) {
    if (err != nullptr) *err = "deployment has no readers";
    return std::nullopt;
  }
  return core::System(std::move(readers), std::move(tags));
}

std::optional<core::System> loadDeploymentFile(const std::string& path,
                                               std::string* err) {
  std::ifstream is(path);
  if (!is) {
    if (err != nullptr) *err = "cannot open deployment at " + path;
    return std::nullopt;
  }
  return loadDeployment(is, err);
}

}  // namespace rfid::workload
