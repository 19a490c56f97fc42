//===- support/FileIO.cpp - Whole-file reads for untrusted inputs ---------===//

#include "support/FileIO.h"

#include <cerrno>
#include <system_error>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace scorpio;

namespace {

diag::Status fileError(const std::string &Path, const char *What, int Errno) {
  std::string Message = "cannot read '" + Path + "': " + What;
  if (Errno != 0)
    Message += " (" + std::generic_category().message(Errno) + ")";
  return diag::Status::error(diag::ErrC::InvalidArgument, std::move(Message));
}

/// Closes the descriptor on every return path.
struct FdGuard {
  int Fd;
  ~FdGuard() { ::close(Fd); }
};

} // namespace

diag::Status scorpio::readRegularFile(const std::string &Path,
                                      std::string &Out) {
  // O_NONBLOCK: opening a FIFO for reading otherwise waits for a writer
  // that may never come.  It has no effect on a regular file's reads.
  int Fd;
  do
    Fd = ::open(Path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  while (Fd < 0 && errno == EINTR);
  if (Fd < 0)
    return fileError(Path, "open failed", errno);
  const FdGuard Guard{Fd};
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return fileError(Path, "fstat failed", errno);
  if (!S_ISREG(St.st_mode))
    return fileError(Path, "not a regular file", 0);

  // One sized read loop over the size fstat saw.  A file that changes
  // size under the read yields the bytes the loop got; the loaders'
  // framing checks reject such a torn file, so it never passes for a
  // whole one.
  Out.resize(static_cast<size_t>(St.st_size));
  size_t Got = 0;
  while (Got != Out.size()) {
    const ssize_t N = ::read(Fd, Out.data() + Got, Out.size() - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return fileError(Path, "read failed", errno);
    }
    if (N == 0)
      break;
    Got += static_cast<size_t>(N);
  }
  Out.resize(Got);
  return diag::Status::ok();
}
