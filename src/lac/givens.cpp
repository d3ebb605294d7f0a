#include "lac/givens.hpp"

#include <cmath>

namespace tbsvd {

template <class T>
GivensRotationT<T> lartg(T f, T g) noexcept {
  if (g == T(0)) {
    return {T(1), T(0), f};
  }
  if (f == T(0)) {
    return {T(0), T(1), g};
  }
  const T r = std::copysign(std::hypot(f, g), f);
  return {f / r, g / r, r};
}

template GivensRotationT<float> lartg<float>(float, float) noexcept;
template GivensRotationT<double> lartg<double>(double, double) noexcept;

}  // namespace tbsvd
