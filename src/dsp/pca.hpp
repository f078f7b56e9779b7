// Principal Component Analysis over signal channels.
//
// Belikovetsky's IDS (Section VIII-C) compresses a spectrogram down to its
// three strongest principal components before comparing signals, so we need
// a PCA that treats channels as features and frames as observations.
//
// Two symmetric eigensolvers are provided: a cyclic Jacobi solver (exact,
// good for small matrices and for testing) and an orthogonal-iteration
// top-k solver (used by Pca::fit, fast for the 100-400 channel spectrogram
// covariance matrices).
#ifndef NSYNC_DSP_PCA_HPP
#define NSYNC_DSP_PCA_HPP

#include <cstddef>
#include <vector>

#include "signal/signal.hpp"

namespace nsync::dsp {

/// Dense row-major square/rectangular matrix helper.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Result of a symmetric eigendecomposition: eigenvalues sorted descending
/// and the matching eigenvectors as matrix columns.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;  ///< vectors(i, j) = component i of eigenvector j
};

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Throws std::invalid_argument for non-square input.
[[nodiscard]] EigenResult jacobi_eigen_symmetric(const Matrix& a,
                                                 std::size_t max_sweeps = 64,
                                                 double tol = 1e-12);

/// Top-k eigenpairs of a symmetric positive semi-definite matrix via
/// orthogonal (subspace) iteration.
[[nodiscard]] EigenResult top_k_eigen_symmetric(const Matrix& a,
                                                std::size_t k,
                                                std::size_t max_iters = 300,
                                                double tol = 1e-10);

/// PCA model: mean vector plus the top-k principal directions of the
/// channel covariance.
class Pca {
 public:
  /// Fits a k-component PCA on the channels of `s` (frames are
  /// observations).  Throws when k exceeds the channel count or the signal
  /// has fewer than two frames.
  static Pca fit(const nsync::signal::SignalView& s, std::size_t k);

  /// Projects `s` onto the principal directions, producing a k-channel
  /// signal at the same sampling rate.  Channel count must match fit data.
  [[nodiscard]] nsync::signal::Signal transform(
      const nsync::signal::SignalView& s) const;

  [[nodiscard]] std::size_t components() const { return components_.rows(); }
  [[nodiscard]] std::size_t input_channels() const { return mean_.size(); }
  [[nodiscard]] const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }

 private:
  std::vector<double> mean_;
  Matrix components_;  // k x channels
  std::vector<double> explained_variance_;
};

}  // namespace nsync::dsp

#endif  // NSYNC_DSP_PCA_HPP
