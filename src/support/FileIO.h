//===- support/FileIO.h - Whole-file reads for untrusted inputs -----------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one whole-file read behind every loader that takes a path from
/// outside the process (`.stap` shards, result-cache entries).  Such a
/// path may name anything a directory can hold: a FIFO whose open or
/// read would block forever, a directory, a device.  readRegularFile
/// opens without blocking, refuses everything but a regular file, and
/// reads the file with one sized read loop, so a hostile path costs a
/// Status, never a hang.
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_SUPPORT_FILEIO_H
#define SCORPIO_SUPPORT_FILEIO_H

#include "support/Diag.h"

#include <string>

namespace scorpio {

/// Replaces \p Out with the bytes of the regular file at \p Path.  A
/// path that cannot be opened or read, or that names a non-regular file
/// (FIFO, directory, device, socket), yields an error Status whose
/// message names the path; \p Out is then unspecified.
diag::Status readRegularFile(const std::string &Path, std::string &Out);

} // namespace scorpio

#endif // SCORPIO_SUPPORT_FILEIO_H
