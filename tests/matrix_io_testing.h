#ifndef HIGNN_TESTS_MATRIX_IO_TESTING_H_
#define HIGNN_TESTS_MATRIX_IO_TESTING_H_

#include <string>

#include "core/serialization.h"
#include "nn/matrix.h"
#include "util/io.h"
#include "util/status.h"

namespace hignn {

// The smallest container artifact: one matrix under kTagMatrix. The IO
// suites use it as their carrier for the header, checksum, truncation and
// atomic-replace behaviour every container shares.
inline Status SaveMatrix(const Matrix& matrix, const std::string& path) {
  BinaryWriter writer(path);
  if (!writer.ok()) return Status::IOError("cannot open " + path);
  writer.WriteHeader(kTagMatrix);
  WriteMatrixPayload(writer, matrix);
  return writer.Close();
}

inline Result<Matrix> LoadMatrix(const std::string& path) {
  BinaryReader reader(path);
  HIGNN_RETURN_IF_ERROR(reader.ReadHeader(kTagMatrix));
  return ReadMatrixPayload(reader);
}

}  // namespace hignn

#endif  // HIGNN_TESTS_MATRIX_IO_TESTING_H_
