//===- support/Diag.h - Structured diagnostics: Status, checks, sink ------===//
//
// Part of the scorpio project: reproduction of "Towards Automatic
// Significance Analysis for Approximate Computing" (CGO 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-on structured error handling for the user-facing API surface.
///
/// A significance analysis whose product is an error bound is only
/// credible if its own failure modes are loud and deterministic: an
/// `assert` compiled out under NDEBUG (which CMake's default
/// RelWithDebInfo defines!) silently turns an invalid input into garbage
/// significances.  This header provides the replacement:
///
///  * `Status` / `Expected<T>` — lightweight error values carrying an
///    error code, a message and the source location of the failed check;
///  * `SCORPIO_CHECK` / `SCORPIO_REQUIRE` / `SCORPIO_CHECK_FATAL` —
///    precondition checks that stay live in every build type.  On
///    failure they record a DiagRecord in the global DiagSink and then
///    recover per the process-wide CheckPolicy;
///  * `DiagSink` — a thread-safe collector of structured error records,
///    queryable from tests and exportable as JSON;
///  * `DiagTestHook` — fault injection: tests arm a check site by its
///    message and the next evaluation takes the failure path even on
///    valid inputs, so every recovery path is testable under NDEBUG.
///
/// Policy: checks guard *caller-reachable* preconditions at API
/// boundaries.  Hot-path internal invariants that cannot be violated by
/// caller input (the interval constructor invoked per sweep operation,
/// BatchAdjoints lanes, Image::at) legitimately
/// remain `assert`s; see DESIGN.md "Error handling & failure policy".
///
//===----------------------------------------------------------------------===//

#ifndef SCORPIO_SUPPORT_DIAG_H
#define SCORPIO_SUPPORT_DIAG_H

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace scorpio {
namespace diag {

/// Error codes of the structured diagnostics layer.  Codes classify the
/// *kind* of violation; the record's message names the exact site.
enum class ErrC : uint8_t {
  Ok = 0,
  InvalidArgument, ///< argument outside the documented domain
  DomainError,     ///< mathematical domain violation (NaN bound, negative
                   ///< radius, disjoint intersection)
  SizeMismatch,    ///< paired containers of different lengths
  EmptyInput,      ///< an input that must be non-empty was empty
  OutOfRange,      ///< index or ratio outside its valid range
  InvalidState,    ///< API misuse (no live Analysis, unreleased tasks)
  Internal,        ///< violated internal invariant (likely a scorpio bug)
};

/// Stable mnemonic for \p Code ("invalid_argument", "domain_error", ...).
const char *errName(ErrC Code);

/// Source location of a failed check (pointers into string literals; no
/// ownership).
struct SourceLoc {
  const char *File = "";
  int Line = 0;
};

/// A success-or-error value: ErrC::Ok or a code plus contextual message
/// and the failing check's source location.
class [[nodiscard]] Status {
public:
  /// Default-constructs the Ok status.
  Status() = default;

  static Status ok() { return Status(); }
  static Status error(ErrC Code, std::string Message, SourceLoc Loc = {}) {
    Status S;
    S.Code = Code;
    S.Message = std::move(Message);
    S.Loc = Loc;
    return S;
  }

  bool isOk() const { return Code == ErrC::Ok; }
  explicit operator bool() const { return isOk(); }

  ErrC code() const { return Code; }
  const std::string &message() const { return Message; }
  const SourceLoc &location() const { return Loc; }

  /// "ok" or "<errname>: <message> (<file>:<line>)".
  std::string toString() const;

private:
  ErrC Code = ErrC::Ok;
  std::string Message;
  SourceLoc Loc;
};

/// Holds either a T or the Status explaining why there is none.  The
/// value-free probing counterpart of a checked API: `tryIntersect`
/// returns Expected<Interval> so callers can branch on emptiness without
/// triggering a diagnostic.
template <typename T> class [[nodiscard]] Expected {
public:
  /*implicit*/ Expected(T Value) : Val(std::move(Value)) {}
  /*implicit*/ Expected(Status S) : Err(std::move(S)) {
    // An Ok status cannot vouch for a value that was never produced;
    // normalize so hasValue() stays truthful.
    if (Err.isOk())
      Err = Status::error(ErrC::Internal, "Expected constructed from Ok "
                                          "status without a value");
  }

  bool hasValue() const { return Val.has_value(); }
  explicit operator bool() const { return hasValue(); }

  const T &value() const & { return *Val; }
  T &value() & { return *Val; }

  /// The value, or \p Default when this holds an error.
  T valueOr(T Default) const {
    return Val ? *Val : std::move(Default);
  }

  /// Ok when a value is present.
  const Status &status() const { return Err; }

private:
  std::optional<T> Val;
  Status Err;
};

/// One collected failure: everything a test (or an exported report)
/// needs to identify the violation.
struct DiagRecord {
  ErrC Code = ErrC::Ok;
  std::string Message;
  std::string File;
  int Line = 0;
  /// Process-wide monotone sequence number (collection order).
  uint64_t Seq = 0;
};

/// Thread-safe collector of DiagRecords.  One process-wide instance;
/// checks report into it and tests query/clear it.
class DiagSink {
public:
  static DiagSink &global();

  /// Appends a record (thread-safe); returns its sequence number.
  uint64_t report(ErrC Code, const char *File, int Line,
                  std::string Message);

  /// Number of collected records.
  size_t count() const;
  /// Number of collected records carrying \p Code.
  size_t countOf(ErrC Code) const;
  /// Snapshot of all records in collection order.
  std::vector<DiagRecord> records() const;
  /// The most recent record (Ok/empty record when none).
  DiagRecord last() const;
  /// Drops all records (sequence numbers keep increasing).
  void clear();

  /// Exports the collected records as a JSON array of objects with
  /// "code", "name", "message", "file", "line", "seq" fields.
  void writeJson(std::ostream &OS) const;

private:
  DiagSink() = default;
  struct Impl;
  Impl &impl() const;
};

/// What a failed check does after recording its DiagRecord.
enum class CheckPolicy : uint8_t {
  /// Record silently and let the call site recover (return its fallback
  /// or Status).  The default: production serving must degrade, not die.
  ReturnStatus,
  /// Record, print the record to stderr, then recover as above.
  LogAndRecover,
  /// Record, print to stderr, std::abort().  Deterministic hard stop for
  /// debugging and for deployments that prefer crash over degradation.
  Trap,
};

CheckPolicy checkPolicy();
void setCheckPolicy(CheckPolicy Policy);

/// Fault injection for tests: arm a check site by (substring of) its
/// message and the next \p Count evaluations of that check fail even
/// when the guarded condition holds, driving the recovery path and the
/// structured error surface deterministically — including under NDEBUG,
/// where the legacy asserts would have been compiled out.
class DiagTestHook {
public:
  /// Arms the hook: checks whose message contains \p SitePattern fail
  /// their next \p Count evaluations.
  static void arm(std::string SitePattern, int Count = 1);
  /// Disarms any pending fault.
  static void disarm();
  /// Cheap pre-test used by the check macros: an inline relaxed load,
  /// so a live check on a hot accessor costs no call.  shouldFail()
  /// re-reads the armed state under the hook's mutex.
  static bool armed() { return Armed.load(std::memory_order_relaxed); }
  /// True when a matching fault is armed; consumes one count.  Called by
  /// the macros only after armed() returned true.
  static bool shouldFail(const char *Site);

private:
  /// True while a fault is pending; written under the hook's mutex.
  static inline std::atomic<bool> Armed{false};
};

/// Records the failure, applies the active CheckPolicy (stderr print /
/// abort), and returns the corresponding error Status.  The workhorse
/// behind the macros; callable directly from code that needs bespoke
/// recovery.
Status reportFailure(ErrC Code, const char *File, int Line,
                     const char *Message);

/// Like reportFailure but always aborts after recording: for violations
/// with no representable recovery (e.g. a reference-returning accessor
/// with no object to refer to).
[[noreturn]] void reportFatal(ErrC Code, const char *File, int Line,
                              const char *Message);

} // namespace diag
} // namespace scorpio

/// Checks a caller-facing precondition; live in every build type.
/// Evaluates to true when the check passes.  On failure (condition false,
/// or a DiagTestHook fault armed for \p Msg) records a structured
/// DiagRecord, applies the CheckPolicy, and evaluates to false so the
/// call site can recover:
///
/// \code
///   if (!SCORPIO_CHECK(Ratio <= 1.0, diag::ErrC::OutOfRange,
///                      "taskwait ratio above 1"))
///     Ratio = 1.0; // documented recovery
/// \endcode
#define SCORPIO_CHECK(Cond, Code, Msg)                                         \
  (((Cond) && !(::scorpio::diag::DiagTestHook::armed() &&                      \
                ::scorpio::diag::DiagTestHook::shouldFail(Msg)))               \
       ? true                                                                  \
       : ((void)::scorpio::diag::reportFailure((Code), __FILE__, __LINE__,     \
                                               (Msg)),                         \
          false))

/// Statement form of SCORPIO_CHECK for the common recover-by-returning
/// case: on failure, returns \p __VA_ARGS__ (which may be empty, for
/// void functions) from the enclosing function.
///
/// \code
///   SCORPIO_REQUIRE(Rad >= 0.0, diag::ErrC::DomainError,
///                   "negative radius", Interval::entire());
/// \endcode
#define SCORPIO_REQUIRE(Cond, Code, Msg, ...)                                  \
  do {                                                                         \
    if (!SCORPIO_CHECK((Cond), (Code), (Msg)))                                 \
      return __VA_ARGS__;                                                      \
  } while (0)

/// Check with no representable recovery: records the diagnostic and
/// aborts regardless of policy.  Reserve for sites where continuing
/// would dereference nothing (e.g. Analysis::current() with none live).
#define SCORPIO_CHECK_FATAL(Cond, Code, Msg)                                   \
  do {                                                                         \
    if (!((Cond) && !(::scorpio::diag::DiagTestHook::armed() &&                \
                      ::scorpio::diag::DiagTestHook::shouldFail(Msg))))        \
      ::scorpio::diag::reportFatal((Code), __FILE__, __LINE__, (Msg));         \
  } while (0)

#endif // SCORPIO_SUPPORT_DIAG_H
