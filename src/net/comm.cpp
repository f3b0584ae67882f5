#include "net/comm.hpp"

#include "net/world.hpp"

namespace das::net {

namespace {
// Reserved tag space for the collectives (user tags must be >= 0).
constexpr int kTagReduce = -1;
constexpr int kTagBcast = -2;
}  // namespace

int Comm::size() const { return world_->size(); }

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  DAS_CHECK(bytes == 0 || data != nullptr);
  const auto* p = static_cast<const std::byte*>(data);
  send(dst, tag, std::vector<std::byte>(p, p + bytes));
}

void Comm::send(int dst, int tag, std::vector<std::byte>&& payload) {
  DAS_CHECK(dst >= 0 && dst < size());
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload = std::move(payload);
  world_->mailbox(dst).deliver(std::move(m));
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  DAS_CHECK(src >= 0 && src < size());
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  // The deadline-less point-to-point primitive itself (MPI recv semantics);
  // fault-tolerant loops layer recv_msg_for/recv_any_for on top.
  const Message m =
      world_->mailbox(rank_).take(src, tag);  // daslint: allow(unbounded-wait)
  DAS_CHECK_MSG(m.payload.size() == bytes,
                "recv size mismatch: posted " + std::to_string(bytes) +
                    " bytes, message has " + std::to_string(m.payload.size()));
  if (bytes > 0) std::memcpy(data, m.payload.data(), bytes);
}

Message Comm::recv_msg(int src, int tag) {
  DAS_CHECK(src >= 0 && src < size());
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  // Primitive, see recv().
  return world_->mailbox(rank_).take(src, tag);  // daslint: allow(unbounded-wait)
}

Message Comm::recv_any(int tag) {
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  // Primitive, see recv().
  return world_->mailbox(rank_).take_any(tag);  // daslint: allow(unbounded-wait)
}

namespace {
std::chrono::nanoseconds to_timeout(double timeout_s) {
  DAS_CHECK(timeout_s >= 0.0);
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(timeout_s));
}
}  // namespace

std::optional<Message> Comm::recv_msg_for(int src, int tag, double timeout_s) {
  DAS_CHECK(src >= 0 && src < size());
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  return world_->mailbox(rank_).take_for(src, tag, to_timeout(timeout_s));
}

std::optional<Message> Comm::recv_any_for(int tag, double timeout_s) {
  DAS_CHECK_MSG(tag >= 0, "negative tags are reserved for collectives");
  return world_->mailbox(rank_).take_any_for(tag, to_timeout(timeout_s));
}

void Comm::allreduce_sum(double* data, std::size_t n) {
  DAS_CHECK(n == 0 || data != nullptr);
  // Gather-to-root, reduce, broadcast. O(P) rounds — fine for the handful of
  // ranks the experiments use; the tree version is a documented extension.
  if (rank_ == 0) {
    std::vector<double> incoming(n);
    for (int src = 1; src < size(); ++src) {
      const Message m = world_->mailbox(0).take(  // daslint: allow(unbounded-wait)
          src, kTagReduce);  // collective: all ranks must participate anyway
      DAS_CHECK(m.payload.size() == n * sizeof(double));
      std::memcpy(incoming.data(), m.payload.data(), n * sizeof(double));
      for (std::size_t i = 0; i < n; ++i) data[i] += incoming[i];
    }
  } else {
    Message m;
    m.src = rank_;
    m.tag = kTagReduce;
    m.payload.resize(n * sizeof(double));
    std::memcpy(m.payload.data(), data, n * sizeof(double));
    world_->mailbox(0).deliver(std::move(m));
  }
  broadcast(data, n, 0);
}

void Comm::broadcast(double* data, std::size_t n, int root) {
  DAS_CHECK(root >= 0 && root < size());
  if (rank_ == root) {
    for (int dst = 0; dst < size(); ++dst) {
      if (dst == root) continue;
      Message m;
      m.src = root;
      m.tag = kTagBcast;
      m.payload.resize(n * sizeof(double));
      std::memcpy(m.payload.data(), data, n * sizeof(double));
      world_->mailbox(dst).deliver(std::move(m));
    }
  } else {
    const Message m = world_->mailbox(rank_).take(  // daslint: allow(unbounded-wait)
        root, kTagBcast);  // collective: all ranks must participate anyway
    DAS_CHECK(m.payload.size() == n * sizeof(double));
    std::memcpy(data, m.payload.data(), n * sizeof(double));
  }
}

void Comm::barrier() {
  MutexLock g(world_->barrier_mu_);
  const std::uint64_t gen = world_->barrier_generation_;
  if (++world_->barrier_waiting_ == size()) {
    world_->barrier_waiting_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
  } else {
    while (world_->barrier_generation_ == gen) world_->barrier_cv_.wait(g);
  }
}

}  // namespace das::net
