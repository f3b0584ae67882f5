#pragma once
// Rank-local communication endpoint of the in-process message-passing world
// (the library's MPI substitute — see DESIGN.md §1).
//
// User tags must be >= 0; negative tags are reserved for the collectives.
//
// A message owns its payload. send(dst, tag, data, bytes) copies the bytes;
// send(dst, tag, std::vector<std::byte>&&) moves an already-built buffer
// (an encoded service request or reply) into the mailbox without a copy.

#include <cstddef>
#include <cstring>
#include <optional>
#include <vector>

#include "net/mailbox.hpp"
#include "util/assert.hpp"

namespace das::net {

class World;

class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  // --- Point-to-point -------------------------------------------------------

  /// Copies `bytes` of `data` into the destination mailbox and returns
  /// (buffered send: never blocks on the receiver).
  void send(int dst, int tag, const void* data, std::size_t bytes);
  /// Moves `payload` into the destination mailbox as the message body: no
  /// copy, for senders that encoded into a buffer they no longer need
  /// (WireWriter::take()).
  void send(int dst, int tag, std::vector<std::byte>&& payload);
  /// Blocks until the matching message arrives; its payload size must be
  /// exactly `bytes`.
  void recv(int src, int tag, void* data, std::size_t bytes);
  /// Blocks until the matching message arrives and returns it whole —
  /// recv() without the posted-size contract, for variable-size payloads.
  Message recv_msg(int src, int tag);
  /// Blocks until a `tag` message from ANY rank arrives and returns it whole
  /// (variable-size payload + source rank) — the server-side accept path of
  /// net/service.hpp.
  Message recv_any(int tag);
  /// Bounded-deadline receives: nullopt after `timeout_s` seconds without a
  /// match. Fault-tolerant protocol loops (net/service.cpp's server tick)
  /// use these so a dead peer cannot wedge a live one.
  std::optional<Message> recv_msg_for(int src, int tag, double timeout_s);
  std::optional<Message> recv_any_for(int tag, double timeout_s);

  template <typename T>
  void send_span(int dst, int tag, const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, data, n * sizeof(T));
  }
  template <typename T>
  void recv_span(int src, int tag, T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    recv(src, tag, data, n * sizeof(T));
  }
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send_span(dst, tag, &v, 1);
  }
  template <typename T>
  T recv_value(int src, int tag) {
    T v;
    recv_span(src, tag, &v, 1);
    return v;
  }

  // --- Collectives (all ranks must participate) -----------------------------

  /// Element-wise sum over all ranks; every rank ends with the global sums.
  void allreduce_sum(double* data, std::size_t n);
  /// Rank 0's buffer overwrites everyone's.
  void broadcast(double* data, std::size_t n, int root = 0);
  void barrier();

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  World* world_;
  int rank_;
};

}  // namespace das::net
