// Which instruction-set clones of the tensor kernels this build compiles,
// shared by the translation units that clone kernels (kernels.cpp and
// kernels_backward.cpp) so their dispatch agrees. A clone needs
// `#pragma GCC target`, hence GCC on x86-64 only, and exists only where
// the build's baseline lacks its ISA.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#if !(defined(__AVX2__) && defined(__FMA__))
#define FMNET_GEMM_AVX2_CLONE 1
#endif
#if !defined(__AVX512F__)
#define FMNET_GEMM_AVX512_CLONE 1
#endif
#endif
