// Clean file: must produce ZERO findings. Exercises the false-positive
// traps — rule tokens inside comments and string literals, a reference
// to a std::vector (no allocation), and an explicitly suppressed line.
#include <cstdio>
#include <memory>
#include <vector>

int no_findings_here(const std::vector<int>& values) {
  // daslint: begin-hot-path(selftest-clean)
  // A comment that talks about `new` allocations and std::mutex lock_guard
  // must not trip the linter: matching runs on comment-stripped source.
  const char* msg = "new std::mutex lock_guard malloc( rand()";
  const std::vector<int>& view = values;
  int x = 0;
  for (int i = 0; i < 4; ++i) x += i + view[0];
  // daslint: end-hot-path
  std::puts(msg);
  // Warm-up path: allocation is deliberate and argued here.
  auto warm = std::make_unique<int>(x);  // daslint: allow(hot-path-alloc)
  return *warm;
}
