// io.h — deployment serialization.
//
// Experiments must be shareable: a deployment written by one run (or by an
// actual site survey) can be reloaded bit-exactly by another, independent
// of RNG or library version.  The format is a minimal line-based CSV:
//
//   # rfidsched deployment v1
//   reader,<id>,<x>,<y>,<interference_radius>,<interrogation_radius>
//   tag,<id>,<x>,<y>,<epc>
//
// Unknown lines, duplicated reader/tag ids, and out-of-range fields are
// rejected (fail closed); `#` lines are comments; CRLF line endings are
// tolerated.  EPCs are full-width uint64 values.  saveDeploymentFile
// publishes atomically (tmp + fsync + rename, ckpt/atomic_file.h) so a
// crashed or out-of-space save never leaves a torn file behind.
//
// The text is canonical: doubles print as std::to_chars general format at
// precision 17 (the `%.17g` an ostream at precision 17 prints, which
// round-trips exactly), integers plainly.  ckpt::deploymentHash hashes the
// same bytes, so a saved file and a journal header always agree.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "core/system.h"

namespace rfid::workload {

/// Streams the canonical text of the deployment (not the read-state) to
/// `sink` in consecutive chunks of at most 8 KiB; never holds the whole
/// text.
void serializeDeployment(const core::System& sys,
                         const std::function<void(std::string_view)>& sink);

/// Writes the canonical text to `os`.
void saveDeployment(std::ostream& os, const core::System& sys);

/// Convenience file form; returns false on I/O failure.
bool saveDeploymentFile(const std::string& path, const core::System& sys);

/// Parses a deployment, reading `is` through a bounded buffer.  Numeric
/// fields take the forms std::stod / std::stoi / std::stoull accept with
/// the whole field consumed (leading spaces, '+', hex floats); an underflow
/// or overflow is malformed.  Returns std::nullopt on any malformed line,
/// non-finite coordinates or radii (NaN/inf poison every distance the
/// schedulers compute), invalid radii (γ > R, γ ≤ 0, or R < 0), or an
/// empty reader set.  On failure `err` (when given) names the offending
/// line and field.
std::optional<core::System> loadDeployment(std::istream& is,
                                           std::string* err = nullptr);

/// Convenience file form.
std::optional<core::System> loadDeploymentFile(const std::string& path,
                                               std::string* err = nullptr);

}  // namespace rfid::workload
