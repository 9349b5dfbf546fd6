"""The paper's primary contribution: the RAFDA class transformation engine.

Submodules
----------
``classmodel``   intermediate representation of classes and members
``introspect``   building class models from live Python classes
``analyzer``     §2.4 transformability / substitutability analysis
``interfaces``   extraction of the ``*_O_Int`` / ``*_C_Int`` interfaces
``rewriter``     AST rewriting of method bodies to use interfaces/factories
``codegen``      the generated artifacts (Figures 3–5) as Python source text
``generator``    execution of that text: the live classes, picked up by name
``registry``     registry of generated artifacts
``interception`` the begin/end/abort interceptor chain (handles, services, servers)
``metaobject``   the reflective metaobject protocol behind handles
``transformer``  the whole-application transformation driver
"""

from repro.core.analyzer import (
    AnalysisResult,
    NonTransformableReason,
    TransformabilityAnalyzer,
)
from repro.core.classmodel import (
    ClassModel,
    ClassUniverse,
    ConstructorModel,
    FieldModel,
    MethodModel,
    ParameterModel,
    TypeRef,
    Visibility,
)
from repro.core.generator import ClassArtifacts
from repro.core.interfaces import (
    InterfaceModel,
    MethodSignature,
    extract_class_interface,
    extract_instance_interface,
)
from repro.core.introspect import (
    class_model_from_descriptor,
    class_model_from_python,
    native,
)
from repro.core.metaobject import (
    Metaobject,
    Redirector,
    metaobject_of,
    unwrap,
)
from repro.core.registry import TransformationRegistry
from repro.core.transformer import (
    ApplicationTransformer,
    TransformedApplication,
)

__all__ = [
    "AnalysisResult",
    "ApplicationTransformer",
    "ClassArtifacts",
    "ClassModel",
    "ClassUniverse",
    "ConstructorModel",
    "FieldModel",
    "InterfaceModel",
    "Metaobject",
    "MethodModel",
    "MethodSignature",
    "NonTransformableReason",
    "ParameterModel",
    "Redirector",
    "TransformabilityAnalyzer",
    "TransformationRegistry",
    "TransformedApplication",
    "TypeRef",
    "Visibility",
    "class_model_from_descriptor",
    "class_model_from_python",
    "extract_class_interface",
    "extract_instance_interface",
    "metaobject_of",
    "native",
    "unwrap",
]
