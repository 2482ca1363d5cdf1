#include "util/fs.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io_faults.hpp"

namespace hlts::util::fs {

namespace stdfs = std::filesystem;

namespace {

/// Error text for a failed syscall; disk-full surfaces distinctly so an
/// operator (or a log grep) can tell "out of space" from "bad disk".
std::string sys_detail(int err) {
  std::string detail = std::strerror(err);
  if (err == ENOSPC) detail += " (disk full: ENOSPC)";
  return detail;
}

[[noreturn]] void injected_fail(const char* what, const std::string& path,
                                io_faults::Mode mode) {
  const int err = mode == io_faults::Mode::Enospc ? ENOSPC : EIO;
  throw Error(std::string(what) + " '" + path +
                  "': injected fault: " + sys_detail(err),
              ErrorKind::Transient);
}

/// Closes `fd` on scope exit unless release()d.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  void release() { fd = -1; }
};

/// Full write of `data[0, len)` with EINTR restart.  A `write:short`
/// injection persists a prefix for real and then fails -- exactly the torn
/// file a crashed or full disk leaves behind.
void write_span(int fd, const char* data, std::size_t len,
                const std::string& path) {
  if (len == 0) return;
  std::size_t limit = len;
  bool injected_short = false;
  if (io_faults::armed()) {
    if (const auto fault = io_faults::consult(io_faults::Op::Write)) {
      if (fault->mode == io_faults::Mode::Short) {
        limit = len / 2;
        injected_short = true;
      } else {
        injected_fail("write", path, fault->mode);
      }
    }
  }
  std::size_t off = 0;
  while (off < limit) {
    const ssize_t n = ::write(fd, data + off, limit - off);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    throw Error("write '" + path + "': " + sys_detail(errno),
                ErrorKind::Transient);
  }
  if (injected_short) {
    throw Error("short write to '" + path + "': injected fault: only " +
                    std::to_string(limit) + " of " + std::to_string(len) +
                    " bytes persisted",
                ErrorKind::Transient);
  }
}

void fsync_fd(int fd, const std::string& path) {
  if (io_faults::armed()) {
    if (const auto fault = io_faults::consult(io_faults::Op::Fsync)) {
      injected_fail("fsync", path, fault->mode);
    }
  }
  if (::fsync(fd) != 0) {
    throw Error("fsync '" + path + "': " + sys_detail(errno),
                ErrorKind::Transient);
  }
}

/// fsyncs the directory containing `path`, making a completed rename
/// durable: without this, a power failure after rename can forget the
/// directory entry even though the data blocks are on disk.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  FdGuard guard{::open(dir.c_str(), O_RDONLY | O_DIRECTORY)};
  if (guard.fd < 0) {
    throw Error("open dir '" + dir + "': " + sys_detail(errno),
                ErrorKind::Transient);
  }
  fsync_fd(guard.fd, dir);
}

std::vector<std::string> list_dir(const std::string& dir, bool include_temps) {
  std::vector<std::string> out;
  std::error_code ec;
  stdfs::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const stdfs::directory_entry& entry : it) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec)) continue;
    std::string name = entry.path().filename().string();
    if (!include_temps && name.size() >= 4 && name.ends_with(kTempSuffix)) {
      continue;
    }
    out.push_back(std::move(name));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void create_directories(const std::string& dir) {
  std::error_code ec;
  stdfs::create_directories(dir, ec);
  if (ec && !stdfs::is_directory(dir)) {
    throw Error("cannot create directory '" + dir + "': " + ec.message(),
                ErrorKind::Transient);
  }
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return stdfs::is_regular_file(path, ec);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return content;
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + kTempSuffix;
  if (io_faults::armed()) {
    if (const auto fault = io_faults::consult(io_faults::Op::Open)) {
      injected_fail("open", tmp, fault->mode);
    }
  }
  FdGuard file{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644)};
  if (file.fd < 0) {
    throw Error("cannot open '" + tmp + "' for writing: " + sys_detail(errno),
                ErrorKind::Transient);
  }
  // Two-part write with the torn-write failpoint in between: a kill (or
  // injected error) at `journal.write` leaves a temp file holding only a
  // prefix -- exactly what a real crash mid-write produces.
  const std::size_t half = content.size() / 2;
  write_span(file.fd, content.data(), half, tmp);
  HLTS_FAILPOINT("journal.write");
  write_span(file.fd, content.data() + half, content.size() - half, tmp);
  // Data must be durable before the rename publishes it; otherwise a power
  // failure could commit the name to a file whose bytes never landed.
  fsync_fd(file.fd, tmp);
  if (::close(file.fd) != 0) {
    file.release();
    throw Error("close '" + tmp + "': " + sys_detail(errno),
                ErrorKind::Transient);
  }
  file.release();
  HLTS_FAILPOINT("journal.commit");
  if (io_faults::armed()) {
    if (const auto fault = io_faults::consult(io_faults::Op::Rename)) {
      injected_fail("rename", tmp, fault->mode);
    }
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot rename '" + tmp + "' to '" + path +
                    "': " + sys_detail(errno),
                ErrorKind::Transient);
  }
  // The rename itself lives in the directory entry: fsync the parent so
  // the commit survives power loss, completing the atomic-commit protocol.
  fsync_parent_dir(path);
}

void remove_file(const std::string& path) {
  std::error_code ec;
  stdfs::remove(path, ec);  // missing file: remove() returns false, no error
}

void rename_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  stdfs::rename(from, to, ec);
  if (ec) {
    throw Error("cannot rename '" + from + "' to '" + to +
                    "': " + ec.message(),
                ErrorKind::Transient);
  }
}

std::vector<std::string> list_files(const std::string& dir) {
  return list_dir(dir, /*include_temps=*/false);
}

std::vector<std::string> list_all_files(const std::string& dir) {
  return list_dir(dir, /*include_temps=*/true);
}

std::string sanitize_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_';
    out.push_back(safe ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

}  // namespace hlts::util::fs
