#ifndef TPIIN_COMMON_COLUMN_H_
#define TPIIN_COMMON_COLUMN_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace tpiin {

/// A read-mostly typed column that either owns its storage (the build
/// path: fusion fills a std::vector, then seals it) or views memory
/// owned by someone else (the snapshot path: the array lives inside an
/// mmap-ed file and is used in place, zero-copy).
///
/// Readers always go through data()/size()/operator[] — a plain pointer
/// + length, no per-access branch on the storage mode — so the CSR hot
/// loops cost exactly what they did when these were raw std::vectors.
///
/// Protocol for owners:
///   Col<T> c;
///   c.vec().push_back(...);   // or assign/resize; mutate freely
///   c.Seal();                 // publish: data()/size() now valid
/// Mutating vec() after Seal() requires a re-Seal (vector growth may
/// reallocate). Assign() is the one-shot form.
///
/// Protocol for views:
///   c.BindView(ptr, n);       // storage must outlive the Col
///
/// Copying an owned column deep-copies and re-seals; copying a view
/// copies the pointer (the mapping outlives both, by the same contract).
/// Moving an owned column keeps the published pointer valid because
/// std::vector moves preserve the heap buffer.
template <typename T>
class Col {
 public:
  Col() = default;

  Col(const Col& other) { CopyFrom(other); }
  Col& operator=(const Col& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Col(Col&& other) noexcept
      : owned_(std::move(other.owned_)),
        data_(other.data_),
        size_(other.size_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }
  Col& operator=(Col&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      data_ = other.data_;
      size_ = other.size_;
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  /// Owned storage for the build path; call Seal() when done mutating.
  std::vector<T>& vec() { return owned_; }
  const std::vector<T>& vec() const { return owned_; }

  void Seal() {
    data_ = owned_.data();
    size_ = owned_.size();
  }

  /// Takes ownership of `values` and seals.
  void Assign(std::vector<T> values) {
    owned_ = std::move(values);
    Seal();
  }

  /// Non-owning view over external memory (an mmap-ed section).
  void BindView(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
  }

  bool owns() const { return data_ == owned_.data() && data_ != nullptr; }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }
  std::span<const T> span() const { return {data_, size_}; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void CopyFrom(const Col& other) {
    if (other.owns()) {
      owned_ = other.owned_;
      Seal();
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      data_ = other.data_;
      size_ = other.size_;
    }
  }

  std::vector<T> owned_;
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace tpiin

#endif  // TPIIN_COMMON_COLUMN_H_
