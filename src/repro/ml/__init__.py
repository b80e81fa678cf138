"""Machine-learning substrate: linear SVM (LibLINEAR-style), RBM, DBN."""

from repro.ml.dbn import PAPER_DBN_CLASSES, PAPER_DBN_LAYERS, DbnConfig, DeepBeliefNetwork
from repro.ml.kernels import affine_matrix, affine_rows, ensure_rows, square_norm_rows
from repro.ml.linear import LinearModel, require_trained, validate_training_set
from repro.ml.logistic import SoftmaxConfig, SoftmaxLayer, one_hot, sigmoid, softmax
from repro.ml.rbm import Rbm, RbmConfig
from repro.ml.scaler import MinMaxScaler, StandardScaler
from repro.ml.svm import LinearSvm, SvmConfig, train_svm

__all__ = [
    "DbnConfig",
    "DeepBeliefNetwork",
    "LinearModel",
    "LinearSvm",
    "MinMaxScaler",
    "PAPER_DBN_CLASSES",
    "PAPER_DBN_LAYERS",
    "Rbm",
    "RbmConfig",
    "SoftmaxConfig",
    "SoftmaxLayer",
    "StandardScaler",
    "SvmConfig",
    "affine_matrix",
    "affine_rows",
    "ensure_rows",
    "square_norm_rows",
    "one_hot",
    "require_trained",
    "sigmoid",
    "softmax",
    "train_svm",
    "validate_training_set",
]
