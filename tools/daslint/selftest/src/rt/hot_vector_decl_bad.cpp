// Planted violation: a local std::vector declared inside a hot-path region.
// The vector allocates on its first push_back, but the declaration itself
// has no `std::vector<...>(` construction, so only the declaration pattern
// catches it.
#include <cstddef>
#include <vector>

std::size_t planted_vector_declaration(const int* values, std::size_t n) {
  // daslint: begin-hot-path(selftest)
  std::vector<const int*> ties;
  std::vector<int> seen{1, 2, 3};
  for (std::size_t i = 0; i < n; ++i)
    if (values[i] == 0) ties.push_back(&values[i]);
  // daslint: end-hot-path
  return ties.size() + seen.size();
}
