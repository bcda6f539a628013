#pragma once
/// \file error.hpp
/// Exception hierarchy for the prtr library.
///
/// Per the project guidelines, failures to perform a required task are
/// signalled with exceptions; recoverable protocol-level outcomes (e.g. a
/// vendor API rejecting a partial bitstream) are modelled as status values
/// at the call site and only become exceptions when the caller demands
/// success.

#include <stdexcept>
#include <string>

namespace prtr::util {

/// Base class for all prtr errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An argument or model parameter outside its documented domain.
class DomainError : public Error {
 public:
  using Error::Error;
};

/// A bitstream failed structural validation (bad magic, CRC, addresses).
class BitstreamError : public Error {
 public:
  using Error::Error;
};

/// A configuration operation was rejected or failed.
class ConfigError : public Error {
 public:
  using Error::Error;
};

/// A floorplan or placement constraint was violated.
class PlacementError : public Error {
 public:
  using Error::Error;
};

/// Internal invariant violation in the simulation kernel.
class SimulationError : public Error {
 public:
  using Error::Error;
};

/// A transient, injected hardware or transport fault (see src/fault). The
/// recovery runtime in config::Manager absorbs these via retry/backoff and
/// the degradation ladder; without a recovery policy they surface to the
/// caller like any other error.
class FaultError : public Error {
 public:
  using Error::Error;
};

/// Throws DomainError with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw DomainError{message};
}

/// Literal-message overload: builds no std::string unless the check fails,
/// so hot-path checks stay allocation-free.
inline void require(bool condition, const char* message) {
  if (!condition) throw DomainError{message};
}

}  // namespace prtr::util
