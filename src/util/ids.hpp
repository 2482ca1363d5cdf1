// Strong identifier types and typed index containers.
//
// Every graph in this project (DFG, ETPN data path, RTL netlist, gate
// netlist) is stored as vectors indexed by dense integer ids.  Using a
// distinct C++ type per id family turns the classic EDA bug -- indexing a
// register table with a module id -- into a compile error.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace hlts {

/// A strongly typed dense identifier.  `Tag` is an empty struct that names
/// the id family; `Id<Tag>` is a thin wrapper over a 32-bit index.
template <typename Tag>
class Id {
 public:
  using underlying_type = std::uint32_t;

  /// Constructs an invalid id (`!valid()`).
  constexpr Id() = default;
  constexpr explicit Id(underlying_type v) : value_(v) {}

  [[nodiscard]] constexpr underlying_type value() const { return value_; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  friend constexpr auto operator<=>(Id, Id) = default;

  /// Sentinel value used by the default constructor.
  static constexpr underlying_type kInvalid =
      std::numeric_limits<underlying_type>::max();

  /// Named constructor for the invalid sentinel, for readability at call
  /// sites: `return OpId::invalid();`.
  [[nodiscard]] static constexpr Id invalid() { return Id{}; }

 private:
  underlying_type value_ = kInvalid;
};

/// A vector indexed by a strong id.  Only the matching id type can index it.
template <typename IdT, typename T>
class IndexVec {
 public:
  IndexVec() = default;
  explicit IndexVec(std::size_t n) : data_(n) {}
  IndexVec(std::size_t n, const T& init) : data_(n, init) {}

  // decltype(auto) so the std::vector<bool> proxy reference works too.
  [[nodiscard]] decltype(auto) operator[](IdT id) { return data_[id.index()]; }
  [[nodiscard]] decltype(auto) operator[](IdT id) const {
    return data_[id.index()];
  }

  /// Appends `value` and returns the id of the new slot.
  IdT push_back(T value) {
    data_.push_back(std::move(value));
    return IdT{static_cast<typename IdT::underlying_type>(data_.size() - 1)};
  }

  template <typename... Args>
  IdT emplace_back(Args&&... args) {
    data_.emplace_back(std::forward<Args>(args)...);
    return IdT{static_cast<typename IdT::underlying_type>(data_.size() - 1)};
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] bool contains(IdT id) const {
    return id.valid() && id.index() < data_.size();
  }
  void clear() { data_.clear(); }
  void resize(std::size_t n) { data_.resize(n); }
  void resize(std::size_t n, const T& init) { data_.resize(n, init); }
  void assign(std::size_t n, const T& init) { data_.assign(n, init); }
  void reserve(std::size_t n) { data_.reserve(n); }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  [[nodiscard]] std::vector<T>& raw() { return data_; }
  [[nodiscard]] const std::vector<T>& raw() const { return data_; }

  friend bool operator==(const IndexVec&, const IndexVec&) = default;

 private:
  std::vector<T> data_;
};

/// Iterates all ids `[0, count)` of a family: `for (OpId op : id_range<OpId>(n))`.
template <typename IdT>
class IdRange {
 public:
  class iterator {
   public:
    constexpr explicit iterator(typename IdT::underlying_type v) : v_(v) {}
    constexpr IdT operator*() const { return IdT{v_}; }
    constexpr iterator& operator++() {
      ++v_;
      return *this;
    }
    constexpr bool operator!=(const iterator& o) const { return v_ != o.v_; }

   private:
    typename IdT::underlying_type v_;
  };

  constexpr explicit IdRange(std::size_t count)
      : count_(static_cast<typename IdT::underlying_type>(count)) {}
  [[nodiscard]] constexpr iterator begin() const { return iterator{0}; }
  [[nodiscard]] constexpr iterator end() const { return iterator{count_}; }

 private:
  typename IdT::underlying_type count_;
};

template <typename IdT>
[[nodiscard]] constexpr IdRange<IdT> id_range(std::size_t count) {
  return IdRange<IdT>{count};
}

}  // namespace hlts

template <typename Tag>
struct std::hash<hlts::Id<Tag>> {
  std::size_t operator()(hlts::Id<Tag> id) const noexcept {
    return std::hash<typename hlts::Id<Tag>::underlying_type>{}(id.value());
  }
};
