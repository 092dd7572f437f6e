// Wire-level message representation.
//
// Payloads are immutable, shared between the k receivers of a broadcast.
// Every protocol defines its own final payload structs, each derived
// through PayloadOf<Self>, and receivers dispatch with payload_cast<T>.
// Dispatch runs for every delivered message: once in the connection layer,
// up to three times in BlockchainNode::deliver, then down the chain's own
// handler chain. Its cost is measured, not negligible: a dynamic_cast that
// misses walks the type hierarchy and compares type names, and the
// Algorand `burst` cell, which delivers 2.6 M TxBatchPayloads, ran in
// 1.23 s with it and 0.79 s with payload_cast and the network's dense rule
// tables (EXPERIMENTS.md, "Per-message dispatch"). payload_cast compares
// one pointer stored in the payload (DESIGN.md §18) and matches exactly
// the payloads a dynamic_cast to the same final type matched, so the
// protocols still see only what is actually on the wire.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace stabl::net {

/// Identity of a machine on the simulated network. NodeIds are dense
/// indices: blockchain nodes first, then client machines.
using NodeId = std::uint32_t;

/// Base class of everything that travels on the wire. Derive payload types
/// through PayloadOf; a type derived from Payload directly (a test's
/// marker, say) carries no tag, and no payload_cast ever matches it.
struct Payload {
  Payload() = default;
  virtual ~Payload() = default;

  /// The dispatch tag of the payload's concrete type, null when untagged.
  [[nodiscard]] const void* type_tag() const { return type_tag_; }

 protected:
  explicit Payload(const void* type_tag) : type_tag_(type_tag) {}

 private:
  const void* type_tag_ = nullptr;
};

/// Base of every tagged payload type: `struct Foo final : PayloadOf<Foo>`.
/// The tag is the address of a per-type static object. The object is
/// mutable data, so neither identical-constant nor identical-code folding
/// can give two types one address, and a type with internal linkage gets
/// its own object in its own translation unit.
template <typename Self>
struct PayloadOf : Payload {
  [[nodiscard]] static const void* tag() { return &tag_object_; }

 protected:
  PayloadOf() : Payload(&tag_object_) {}

 private:
  static inline char tag_object_ = 0;
};

/// `payload` as a T when its concrete type is T, otherwise (or when
/// `payload` is null) nullptr. T must be final, so the exact-type match
/// finds what dynamic_cast<const T*> would.
template <typename T>
[[nodiscard]] const T* payload_cast(const Payload* payload) {
  static_assert(std::is_final_v<T>, "payload_cast needs a final type");
  static_assert(std::is_base_of_v<PayloadOf<T>, T>,
                "payload_cast needs a type derived through PayloadOf<T>");
  return payload != nullptr && payload->type_tag() == PayloadOf<T>::tag()
             ? static_cast<const T*>(payload)
             : nullptr;
}

using PayloadPtr = std::shared_ptr<const Payload>;

/// A payload in flight between two machines.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 256;  // serialized size, for bandwidth accounting
  PayloadPtr payload;
};

/// Connection-management control frames (the simulated TCP layer).
struct ControlPayload final : PayloadOf<ControlPayload> {
  enum class Kind : std::uint8_t {
    kSyn,     // dial attempt
    kSynAck,  // dial accepted
    kPing,    // keepalive probe
    kPong,    // keepalive answer
    kRst,     // peer process is dead (emitted by the network on delivery
              // to a dead endpoint, mirroring a TCP RST from the OS)
  };
  explicit ControlPayload(Kind k) : kind(k) {}
  Kind kind;
};

/// Receiving side of the network. A machine's deliver() is only invoked
/// while its process is alive.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(const Envelope& envelope) = 0;
  [[nodiscard]] virtual bool endpoint_alive() const = 0;
};

}  // namespace stabl::net
