//===- support/Diag.cpp - Structured diagnostics implementation ----------===//

#include "support/Diag.h"

#include "support/Json.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace scorpio;
using namespace scorpio::diag;

const char *scorpio::diag::errName(ErrC Code) {
  switch (Code) {
  case ErrC::Ok:
    return "ok";
  case ErrC::InvalidArgument:
    return "invalid_argument";
  case ErrC::DomainError:
    return "domain_error";
  case ErrC::SizeMismatch:
    return "size_mismatch";
  case ErrC::EmptyInput:
    return "empty_input";
  case ErrC::OutOfRange:
    return "out_of_range";
  case ErrC::InvalidState:
    return "invalid_state";
  case ErrC::Internal:
    return "internal";
  }
  return "?";
}

std::string Status::toString() const {
  if (isOk())
    return "ok";
  std::ostringstream OS;
  OS << errName(Code) << ": " << Message;
  if (Loc.File && Loc.File[0] != '\0')
    OS << " (" << Loc.File << ":" << Loc.Line << ")";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// DiagSink
//===----------------------------------------------------------------------===//

struct DiagSink::Impl {
  mutable std::mutex Mutex;
  std::vector<DiagRecord> Records;
  uint64_t NextSeq = 0;
};

DiagSink::Impl &DiagSink::impl() const {
  // One process-wide store, constructed on first use and intentionally
  // leaked so checks firing during static destruction stay safe.
  static Impl *I = new Impl();
  return *I;
}

DiagSink &DiagSink::global() {
  static DiagSink Sink;
  return Sink;
}

uint64_t DiagSink::report(ErrC Code, const char *File, int Line,
                          std::string Message) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  DiagRecord R;
  R.Code = Code;
  R.Message = std::move(Message);
  R.File = File ? File : "";
  R.Line = Line;
  R.Seq = I.NextSeq++;
  I.Records.push_back(std::move(R));
  return I.Records.back().Seq;
}

size_t DiagSink::count() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Records.size();
}

size_t DiagSink::countOf(ErrC Code) const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  size_t N = 0;
  for (const DiagRecord &R : I.Records)
    if (R.Code == Code)
      ++N;
  return N;
}

std::vector<DiagRecord> DiagSink::records() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  return I.Records;
}

DiagRecord DiagSink::last() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  if (I.Records.empty())
    return DiagRecord();
  return I.Records.back();
}

void DiagSink::clear() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  I.Records.clear();
}

void DiagSink::writeJson(std::ostream &OS) const {
  const std::vector<DiagRecord> Snapshot = records();
  JsonWriter J(OS);
  J.beginArray();
  for (const DiagRecord &R : Snapshot) {
    J.beginObject();
    J.key("code").value(static_cast<long long>(R.Code));
    J.key("name").value(errName(R.Code));
    J.key("message").value(R.Message);
    J.key("file").value(R.File);
    J.key("line").value(R.Line);
    J.key("seq").value(static_cast<long long>(R.Seq));
    J.endObject();
  }
  J.endArray();
}

//===----------------------------------------------------------------------===//
// CheckPolicy
//===----------------------------------------------------------------------===//

static std::atomic<CheckPolicy> ActivePolicy{CheckPolicy::ReturnStatus};

CheckPolicy scorpio::diag::checkPolicy() {
  return ActivePolicy.load(std::memory_order_relaxed);
}

void scorpio::diag::setCheckPolicy(CheckPolicy Policy) {
  ActivePolicy.store(Policy, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// DiagTestHook
//===----------------------------------------------------------------------===//

namespace {
struct HookState {
  std::mutex Mutex;
  std::string Pattern;
  int Remaining = 0;
};

HookState &hookState() {
  static HookState *S = new HookState();
  return *S;
}
} // namespace

void DiagTestHook::arm(std::string SitePattern, int Count) {
  HookState &S = hookState();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Pattern = std::move(SitePattern);
  S.Remaining = Count;
  Armed.store(Count > 0, std::memory_order_release);
}

void DiagTestHook::disarm() {
  HookState &S = hookState();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  S.Pattern.clear();
  S.Remaining = 0;
  Armed.store(false, std::memory_order_release);
}

bool DiagTestHook::shouldFail(const char *Site) {
  HookState &S = hookState();
  std::lock_guard<std::mutex> Lock(S.Mutex);
  if (S.Remaining <= 0 || !Site)
    return false;
  if (std::string(Site).find(S.Pattern) == std::string::npos)
    return false;
  if (--S.Remaining == 0)
    Armed.store(false, std::memory_order_release);
  return true;
}

//===----------------------------------------------------------------------===//
// Failure reporting
//===----------------------------------------------------------------------===//

static void printRecord(ErrC Code, const char *File, int Line,
                        const char *Message) {
  std::fprintf(stderr, "scorpio: check failed [%s] %s (%s:%d)\n",
               errName(Code), Message, File ? File : "?", Line);
  std::fflush(stderr);
}

Status scorpio::diag::reportFailure(ErrC Code, const char *File, int Line,
                                    const char *Message) {
  DiagSink::global().report(Code, File, Line, Message);
  const CheckPolicy Policy = checkPolicy();
  if (Policy != CheckPolicy::ReturnStatus)
    printRecord(Code, File, Line, Message);
  if (Policy == CheckPolicy::Trap)
    std::abort();
  return Status::error(Code, Message, SourceLoc{File, Line});
}

void scorpio::diag::reportFatal(ErrC Code, const char *File, int Line,
                                const char *Message) {
  DiagSink::global().report(Code, File, Line, Message);
  printRecord(Code, File, Line, Message);
  std::abort();
}
